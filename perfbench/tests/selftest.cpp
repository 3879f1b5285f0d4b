/// @file selftest.cpp
/// @brief Shows that every output check of the benchmark accepts a correct
/// result and rejects a deliberately corrupted one. Exits non-zero on the
/// first check that does not.
///
/// Usage: perfbench_selftest   (or: python3 perfbench/run.py --self-test)
#include <cstdio>
#include <vector>

#include "checks.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool cond, char const* what) {
    std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
    if (!cond) ++failures;
}

constexpr int kP = 4;
constexpr std::uint64_t kSeed = 12345;

void sums() {
    std::vector<Lin> in;
    for (int r = 0; r < kP; ++r) in.push_back(lin(kSeed, r, 0));
    std::vector<std::uint64_t> out(64);
    for (std::size_t i = 0; i < out.size(); ++i) {
        for (Lin const& l : in) out[i] += l.at(i);
    }
    expect(check_sum(out.data(), out.size(), in), "sum: correct result accepted");
    auto bad = out;
    bad[17] += 1;
    expect(!check_sum(bad.data(), bad.size(), in), "sum: one wrong element rejected");
    bad = out;
    bad[63] = kPoison;
    expect(!check_sum(bad.data(), bad.size(), in), "sum: untouched (poisoned) element rejected");
    std::vector<Lin> missing(in.begin(), in.end() - 1);
    expect(!check_sum(out.data(), out.size(), missing),
           "sum: a sum with one rank's input too many rejected");
}

void blocks() {
    // alltoallv as seen by rank 1: ragged blocks from every sender.
    std::vector<Block> b;
    for (int s = 0; s < kP; ++s) {
        b.push_back(Block{lin(kSeed, s, 4), static_cast<std::uint64_t>(10 * s),
                          static_cast<std::size_t>(3 + s)});
    }
    std::vector<std::uint64_t> out;
    for (Block const& x : b) {
        for (std::size_t i = 0; i < x.count; ++i) out.push_back(x.src.at(x.first + i));
    }
    expect(check_blocks(out.data(), out.size(), b), "blocks: correct concatenation accepted");
    auto bad = out;
    bad[4] ^= 1;
    expect(!check_blocks(bad.data(), bad.size(), b), "blocks: one flipped bit rejected");
    bad = out;
    std::swap(bad[0], bad[out.size() - 1]);
    expect(!check_blocks(bad.data(), bad.size(), b), "blocks: blocks out of order rejected");
    expect(!check_blocks(out.data(), out.size() - 1, b), "blocks: short result rejected");
    bad = out;
    bad.push_back(0);
    expect(!check_blocks(bad.data(), bad.size(), b), "blocks: long result rejected");
    std::vector<std::uint64_t> bcast(8);
    fill(bcast.data(), 8, lin(kSeed, 2, 1));
    std::vector<Block> root2{Block{lin(kSeed, 2, 1), 0, 8}};
    std::vector<Block> root3{Block{lin(kSeed, 3, 1), 0, 8}};
    expect(check_blocks(bcast.data(), 8, root2), "bcast: root's payload accepted");
    expect(!check_blocks(bcast.data(), 8, root3), "bcast: another root's payload rejected");
}

/// Path 0-1-2-3 plus a triangle 4-5-6 (unreached from 0), one part.
struct TinyGraph {
    std::vector<std::size_t> xadj{0, 1, 3, 5, 6, 8, 10, 12};
    std::vector<std::uint64_t> adjncy{1, 0, 2, 1, 3, 2, 5, 6, 4, 6, 4, 5};
};

bool bfs_ok(std::vector<std::size_t> const& level) {
    TinyGraph g;
    std::size_t levels = 0;
    return check_bfs_part(0, g.xadj, g.adjncy, 0, [&](std::uint64_t v) { return level[v]; },
                          &levels);
}

void bfs() {
    std::size_t const U = kUnreached;
    expect(bfs_ok({0, 1, 2, 3, U, U, U}), "bfs: correct levels accepted");
    expect(!bfs_ok({1, 1, 2, 3, U, U, U}), "bfs: source not at 0 rejected");
    expect(!bfs_ok({0, 1, 3, 4, U, U, U}), "bfs: edge spanning two levels rejected");
    expect(!bfs_ok({0, 1, 2, U, U, U, U}), "bfs: reached-unreached edge rejected");
    expect(!bfs_ok({0, 1, 2, 3, 5, 5, 5}), "bfs: unreachable component reached rejected");
    expect(!bfs_ok({0, 1, 0, 1, U, U, U}), "bfs: second vertex at level 0 rejected");
    // Path 0-1-2 levelled {0, 1, 1}: every edge spans at most one level, but
    // vertex 2 has no neighbour one level lower.
    std::vector<std::size_t> xadj{0, 1, 3, 4};
    std::vector<std::uint64_t> adjncy{1, 0, 2, 1};
    std::vector<std::size_t> lv{0, 1, 1};
    std::size_t levels = 0;
    expect(!check_bfs_part(0, xadj, adjncy, 0, [&](std::uint64_t v) { return lv[v]; }, &levels),
           "bfs: reached vertex without a parent rejected");
}

void vtimes() {
    std::vector<double> sim{1.5e-4, 1.5e-4, 1.6e-4, 1.6e-4};
    expect(vtimes_match(sim, sim, 1e-9), "vtime: identical finish times accepted");
    auto close = sim;
    close[2] *= 1.0 + 1e-12;
    expect(vtimes_match(close, sim, 1e-9), "vtime: rounding-level difference accepted");
    auto bad = sim;
    bad[3] *= 1.0 + 1e-6;
    expect(!vtimes_match(bad, sim, 1e-9), "vtime: one rank off by 1e-6 rejected");
    expect(!vtimes_match({1.5e-4, 1.5e-4, 1.6e-4}, sim, 1e-9), "vtime: missing rank rejected");
    expect(!vtimes_match(std::vector<double>(4, 0.0), std::vector<double>(4, 0.0), 1e-9),
           "vtime: all-zero (unpriced) finish times rejected");
}

}  // namespace

int main() {
    sums();
    blocks();
    bfs();
    vtimes();
    std::printf("%s\n", failures == 0 ? "all checks reject corrupted results"
                                      : "some check accepted a corrupted result");
    return failures == 0 ? 0 : 1;
}
