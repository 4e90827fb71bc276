#include "arch/state_delta.hh"

#include <algorithm>

namespace mssp
{

void
StateDelta::rehash(size_t new_cap)
{
    // Re-insert in log order, so iteration order survives a rehash.
    std::vector<value_type> old = std::move(slots_);
    std::vector<uint32_t> old_used = std::move(used_);
    slots_.assign(new_cap, {EmptyKey, 0});
    used_.clear();
    used_.reserve(size_);
    tombstones_ = 0;
    size_t mask = new_cap - 1;
    for (uint32_t u : old_used) {
        const auto &[cell, value] = old[u];
        if (cell == TombKey)
            continue;
        size_t i = hashCell(cell) & mask;
        while (slots_[i].first != EmptyKey)
            i = (i + 1) & mask;
        slots_[i] = {cell, value};
        used_.push_back(static_cast<uint32_t>(i));
    }
}

void
StateDelta::growAndInsert(CellId cell, uint32_t value)
{
    rehash(capacityFor(size_ + 1));
    // The key was absent (callers only grow on the insert path), the
    // fresh table has no tombstones and cannot need another grow.
    Cursor c = lookup(cell);
    slots_[c.index] = {cell, value};
    used_.push_back(static_cast<uint32_t>(c.index));
    ++size_;
}

std::vector<StateDelta::value_type>
StateDelta::sorted() const
{
    std::vector<value_type> out(begin(), end());
    std::sort(out.begin(), out.end());
    return out;
}

std::string
StateDelta::toString() const
{
    std::string s;
    for (const auto &[cell, value] : sorted())
        s += strfmt("  %s = 0x%x\n", cellToString(cell).c_str(), value);
    return s;
}

} // namespace mssp
