/**
 * @file
 * Compatibility include: the speculation-safety and speculation-plan
 * reports are projections of the one load-fact analysis in
 * analysis/loadfacts.hh. New code includes that header directly.
 */

#ifndef MSSP_ANALYSIS_SPECSAFE_HH
#define MSSP_ANALYSIS_SPECSAFE_HH

#include "analysis/loadfacts.hh"

#endif // MSSP_ANALYSIS_SPECSAFE_HH
