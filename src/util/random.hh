/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component in dir2b (synthetic reference generators,
 * random replacement, randomised tests) draws from an explicitly seeded
 * Rng so that a run is reproducible from its configuration alone.  The
 * generator is xoshiro256**, seeded through SplitMix64 as its authors
 * recommend.
 */

#ifndef DIR2B_UTIL_RANDOM_HH
#define DIR2B_UTIL_RANDOM_HH

#include <bit>
#include <cstdint>

#include "util/logging.hh"

namespace dir2b
{

/** xoshiro256** pseudo-random generator with convenience draws. */
class Rng
{
  public:
    /** Construct from a 64-bit seed; distinct seeds give distinct
     *  well-mixed streams. */
    explicit Rng(std::uint64_t seed = 0x2b2b2b2bULL) { reseed(seed); }

    /** Reset the stream to a fresh seed. */
    void reseed(std::uint64_t seed);

    /** Next raw 64-bit draw.  The per-reference draws are inline:
     *  reference generators make several per reference. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound), bound > 0, without modulo bias. */
    std::uint64_t
    range(std::uint64_t bound)
    {
        DIR2B_ASSERT(bound > 0, "Rng::range with zero bound");
        // Debiased modulo (Lemire-style rejection on the low word).
        const std::uint64_t threshold = -bound % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 random bits into [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with success probability p. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Geometric draw: number of failures before the first success with
     * per-trial probability p.  Used for run lengths in reference
     * generators.
     */
    std::uint64_t geometric(double p);

    /** Split off an independent child stream (for per-processor use). */
    Rng split();

  private:
    std::uint64_t s_[4];
};

} // namespace dir2b

#endif // DIR2B_UTIL_RANDOM_HH
