#include "trace/trace_io.hh"

#include <istream>
#include <ostream>
#include <sstream>

#include "util/logging.hh"

namespace dir2b
{

void
writeTrace(std::ostream &os, const std::vector<MemRef> &refs)
{
    os << "# dir2b trace: <proc> <R|W> <hex-addr>\n";
    for (const auto &r : refs) {
        os << r.proc << " " << (r.write ? "W" : "R") << " " << std::hex
           << r.addr << std::dec << "\n";
    }
}

bool
parseTraceLine(const std::string &line, MemRef &out)
{
    std::string trimmed = line;
    const auto first = trimmed.find_first_not_of(" \t\r");
    if (first == std::string::npos)
        return false;
    if (trimmed[first] == '#')
        return false;

    std::istringstream is(trimmed);
    std::uint64_t proc;
    std::string rw;
    std::string addr;
    if (!(is >> proc >> rw >> addr))
        DIR2B_FATAL("malformed trace line: '", line, "'");
    if (rw != "R" && rw != "W" && rw != "r" && rw != "w")
        DIR2B_FATAL("trace line has bad R/W field: '", line, "'");

    out.proc = static_cast<ProcId>(proc);
    out.write = (rw == "W" || rw == "w");
    out.addr = std::stoull(addr, nullptr, 16);
    return true;
}

std::vector<MemRef>
readTrace(std::istream &is)
{
    std::vector<MemRef> refs;
    std::string line;
    while (std::getline(is, line)) {
        MemRef r;
        if (parseTraceLine(line, r))
            refs.push_back(r);
    }
    return refs;
}

std::vector<MemRef>
recordStream(RefStream &src, std::size_t n)
{
    std::vector<MemRef> refs(n);
    refs.resize(src.fill(refs.data(), n));
    return refs;
}

} // namespace dir2b
