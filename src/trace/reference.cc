#include "trace/reference.hh"

#include <sstream>

namespace dir2b
{

std::string
toString(const MemRef &r)
{
    std::ostringstream os;
    os << "P" << r.proc << " " << (r.write ? "W" : "R") << " 0x"
       << std::hex << r.addr;
    return os.str();
}

std::size_t
RefStream::fill(MemRef *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        auto r = next();
        if (!r)
            return i;
        out[i] = *r;
    }
    return n;
}

} // namespace dir2b
