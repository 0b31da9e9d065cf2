#include "sim/stats.hh"

#include <algorithm>
#include <bit>
#include <iomanip>
#include <sstream>

#include "util/logging.hh"

namespace dir2b
{

Histogram::Histogram(std::uint64_t bucketWidth, std::size_t nbuckets)
    : bucketWidth_(bucketWidth),
      widthShift_(std::has_single_bit(bucketWidth)
                      ? std::countr_zero(bucketWidth)
                      : -1),
      size_(nbuckets + 1)
{
    DIR2B_ASSERT(bucketWidth > 0, "histogram bucket width must be > 0");
    DIR2B_ASSERT(nbuckets > 0, "histogram needs at least one bucket");
    if (size_ > inlineBuckets)
        heap_.assign(size_, 0);
}

std::uint64_t
Histogram::bucket(std::size_t i) const
{
    DIR2B_ASSERT(i < size_, "histogram bucket ", i, " out of range");
    return data()[i];
}

std::uint64_t
Histogram::percentile(double frac) const
{
    DIR2B_ASSERT(frac >= 0.0 && frac <= 1.0, "percentile out of range");
    if (count_ == 0)
        return 0;
    const auto target = static_cast<std::uint64_t>(
        frac * static_cast<double>(count_));
    const std::uint64_t *b = data();
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < size_; ++i) {
        seen += b[i];
        if (seen >= target) {
            if (i == size_ - 1)
                return max_;
            return (i + 1) * bucketWidth_ - 1;
        }
    }
    return max_;
}

void
Histogram::merge(const Histogram &other)
{
    DIR2B_ASSERT(bucketWidth_ == other.bucketWidth_ &&
                     size_ == other.size_,
                 "histogram merge requires identical geometry");
    if (other.count_ == 0)
        return;
    std::uint64_t *b = data();
    const std::uint64_t *ob = other.data();
    for (std::size_t i = 0; i < size_; ++i)
        b[i] += ob[i];
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
Histogram::reset()
{
    std::fill(data(), data() + size_, 0);
    count_ = 0;
    sum_ = 0;
    min_ = ~0ULL;
    max_ = 0;
}

void
StatGroup::addCounter(std::string name, const Counter *c, std::string desc)
{
    entries_.push_back(
        Entry{Kind::Count, std::move(name), std::move(desc), c});
}

void
StatGroup::addMean(std::string name, const Mean *m, std::string desc)
{
    entries_.push_back(
        Entry{Kind::Avg, std::move(name), std::move(desc), m});
}

void
StatGroup::addHistogram(std::string name, const Histogram *h,
                        std::string desc)
{
    entries_.push_back(
        Entry{Kind::Hist, std::move(name), std::move(desc), h});
}

void
StatGroup::addDerived(std::string name, double (*fn)(const void *),
                      const void *ctx, std::string desc)
{
    Entry e{Kind::Derived, std::move(name), std::move(desc), ctx};
    e.fn = fn;
    entries_.push_back(std::move(e));
}

void
StatGroup::dump(std::ostream &os) const
{
    auto line = [&](const std::string &stat, const std::string &value,
                    const std::string &desc) {
        os << std::left << std::setw(40) << (name_ + "." + stat) << " "
           << std::right << std::setw(16) << value;
        if (!desc.empty())
            os << "  # " << desc;
        os << "\n";
    };

    for (const auto &e : entries_) {
        switch (e.kind) {
          case Kind::Count: {
            const auto *c = static_cast<const Counter *>(e.ptr);
            line(e.name, std::to_string(c->value()), e.desc);
            break;
          }
          case Kind::Avg: {
            const auto *m = static_cast<const Mean *>(e.ptr);
            std::ostringstream v;
            v << std::fixed << std::setprecision(4) << m->mean();
            line(e.name, v.str(), e.desc);
            break;
          }
          case Kind::Hist: {
            const auto *h = static_cast<const Histogram *>(e.ptr);
            std::ostringstream v;
            v << std::fixed << std::setprecision(2) << h->mean() << " ["
              << h->min() << "," << h->max() << "]";
            line(e.name, v.str(), e.desc);
            break;
          }
          case Kind::Derived: {
            std::ostringstream v;
            v << std::fixed << std::setprecision(4) << e.fn(e.ptr);
            line(e.name, v.str(), e.desc);
            break;
          }
        }
    }
}

void
StatGroup::visit(StatVisitor &v) const
{
    for (const auto &e : entries_) {
        switch (e.kind) {
          case Kind::Count:
            v.onCounter(e.name, e.desc,
                        *static_cast<const Counter *>(e.ptr));
            break;
          case Kind::Avg:
            v.onMean(e.name, e.desc, *static_cast<const Mean *>(e.ptr));
            break;
          case Kind::Hist:
            v.onHistogram(e.name, e.desc,
                          *static_cast<const Histogram *>(e.ptr));
            break;
          case Kind::Derived:
            v.onDerived(e.name, e.desc, e.fn(e.ptr));
            break;
        }
    }
}

} // namespace dir2b
