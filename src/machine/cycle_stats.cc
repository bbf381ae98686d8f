#include "machine/cycle_stats.h"

#include <sstream>

#include "support/format.h"

namespace mxl {

std::string
CycleStats::summary() const
{
    std::ostringstream os;
    os << "cycles " << total << "  instructions " << instructions << "\n";
    for (int p = 0; p < numPurposes; ++p) {
        uint64_t c = byPurpose[p][0] + byPurpose[p][1];
        if (!c)
            continue;
        os << "  " << padRight(purposeName(static_cast<Purpose>(p)), 11)
           << padLeft(strcat(c), 12) << "  ("
           << percent(100.0 * static_cast<double>(c) /
                      static_cast<double>(total ? total : 1))
           << ")\n";
    }
    os << "  and " << andOps << "  move " << moveOps << "  noop " << noops
       << "  squashed " << squashed << "  stalls " << loadStalls << "\n";
    return os.str();
}

} // namespace mxl
