/// @file checks.hpp
/// @brief The benchmark's own input generators and output checks. Nothing
/// here calls the program under test: every expected value is computed from
/// each rank's seeded generator, so a check holds the result of a collective
/// against arithmetic, not against another path through the substrate.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// SplitMix64 finalizer.
inline std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Deterministic value derived from the run seed and up to three keys.
inline std::uint64_t gen(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                         std::uint64_t c = 0) {
    return mix64(seed ^ mix64(a ^ mix64(b ^ mix64(c))));
}

/// One rank's input for one mix slot: element i is base + i * step (mod
/// 2^64). Sums over ranks and any block of it have closed forms, so checks
/// cost one pass over the output.
struct Lin {
    std::uint64_t base = 0;
    std::uint64_t step = 0;
    std::uint64_t at(std::uint64_t i) const { return base + i * step; }
};

inline Lin lin(std::uint64_t seed, int rank, int slot) {
    return {gen(seed, 1, static_cast<std::uint64_t>(rank), static_cast<std::uint64_t>(slot)),
            gen(seed, 2, static_cast<std::uint64_t>(rank), static_cast<std::uint64_t>(slot)) | 1};
}

inline void fill(std::uint64_t* out, std::size_t n, Lin const& l, std::uint64_t first = 0) {
    for (std::size_t i = 0; i < n; ++i) out[i] = l.at(first + i);
}

/// Value written over every output before an operation, so an operation
/// that leaves its output untouched cannot pass a check.
inline constexpr std::uint64_t kPoison = 0xdeadbeefdeadbeefull;

/// Element-wise sum over ranks of their Lin inputs.
inline bool check_sum(std::uint64_t const* out, std::size_t n, std::vector<Lin> const& inputs) {
    Lin total{0, 0};
    for (Lin const& l : inputs) {
        total.base += l.base;
        total.step += l.step;
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (out[i] != total.at(i)) return false;
    }
    return true;
}

/// One block of a concatenated result: `count` elements of `src` starting
/// at element `first` of the sender's input.
struct Block {
    Lin src;
    std::uint64_t first = 0;
    std::size_t count = 0;
};

/// The output is exactly the blocks back to back (bcast, allgather(v) and
/// alltoall(v) results).
inline bool check_blocks(std::uint64_t const* out, std::size_t n,
                         std::vector<Block> const& blocks) {
    std::size_t pos = 0;
    for (Block const& b : blocks) {
        if (pos + b.count > n) return false;
        for (std::size_t i = 0; i < b.count; ++i) {
            if (out[pos + i] != b.src.at(b.first + i)) return false;
        }
        pos += b.count;
    }
    return pos == n;
}

inline constexpr std::size_t kUnreached = std::numeric_limits<std::size_t>::max();

/// Graph500-style validation of BFS levels over the vertices
/// [first, first + xadj.size() - 1) of a CSR part whose neighbour lists hold
/// global ids; `level(v)` returns any vertex's level (kUnreached if none).
///  - the source is at level 0, and no other vertex is;
///  - every edge joins vertices whose levels differ by at most 1, or two
///    unreached vertices;
///  - every reached vertex other than the source has a neighbour one level
///    lower.
/// Returns the part's largest finite level + 1 in `*levels` when valid.
template <typename Level>
bool check_bfs_part(std::uint64_t first, std::vector<std::size_t> const& xadj,
                    std::vector<std::uint64_t> const& adjncy, std::uint64_t source, Level&& level,
                    std::size_t* levels) {
    std::size_t deepest = 0;
    for (std::size_t lv = 0; lv + 1 < xadj.size(); ++lv) {
        std::uint64_t const v = first + lv;
        std::size_t const d = level(v);
        if ((v == source) != (d == 0)) return false;
        bool has_parent = false;
        for (std::size_t e = xadj[lv]; e < xadj[lv + 1]; ++e) {
            std::size_t const du = level(adjncy[e]);
            if ((d == kUnreached) != (du == kUnreached)) return false;
            if (d == kUnreached) continue;
            if (du + 1 < d || d + 1 < du) return false;
            if (du + 1 == d) has_parent = true;
        }
        if (d != kUnreached && d != 0 && !has_parent) return false;
        if (d != kUnreached) deepest = d + 1 > deepest ? d + 1 : deepest;
    }
    *levels = deepest;
    return true;
}

/// Per-rank virtual finish times of the threaded executor against the
/// simulator's for the same operation and machine, within `rel` relative.
inline bool vtimes_match(std::vector<double> const& threaded, std::vector<double> const& simulated,
                         double rel) {
    if (threaded.size() != simulated.size() || threaded.empty()) return false;
    for (std::size_t r = 0; r < threaded.size(); ++r) {
        double const want = simulated[r];
        if (!(want > 0.0) || !(std::abs(threaded[r] - want) <= rel * std::abs(want))) return false;
    }
    return true;
}

}  // namespace perfbench
