// cepbench result accounting and the final JSON line.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "loadgen.hpp"
#include "util/stats.hpp"

namespace cepbench {

// Linear-interpolated percentile, q in [0, 100]; 0 for an empty sample.
inline double percentile(const std::vector<double>& v, double q) {
    return v.empty() ? 0 : spectre::util::percentile(v, q);
}

inline double median(const std::vector<double>& v) { return percentile(v, 50); }

// Host-speed probe: a fixed single-thread integer loop, ns per iteration.
// Taken before every run so drift of the machine between runs is visible.
inline double cpu_probe_ns() {
    constexpr std::uint64_t kIters = 20'000'000;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    const std::int64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < kIters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x *= 0x2545f4914f6cdd1dULL;
    }
    const double ns = static_cast<double>(now_ns() - t0);
    // Keeps the loop's result live, so the compiler cannot drop the loop.
    if (x == 42) std::printf("diag: probe %llu\n", static_cast<unsigned long long>(x));
    return ns / static_cast<double>(kIters);
}

class Report {
public:
    // Folds one checked stream into the failure accounting.
    void add(std::size_t expected, std::size_t failed, const std::string& error) {
        attempted_ += expected;
        failed_ += failed;
        if (!error.empty()) {
            correct_ = false;
            std::fprintf(stderr, "cepbench: %s\n", error.c_str());
        }
    }
    void account(const PhaseResult& p) { add(p.expected, p.failed, p.error); }

    void metric(const std::string& name, double value, const std::string& unit) {
        if (!std::isfinite(value)) {
            correct_ = false;
            std::fprintf(stderr, "cepbench: metric %s is not finite\n", name.c_str());
            value = 0;
        }
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        metrics_ += (metrics_.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": ") + buf +
                    ", \"unit\": \"" + unit + "\"}";
    }

    void print() const {
        const bool correct = correct_ && failed_ == 0 && attempted_ > 0;
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                    correct ? "true" : "false", static_cast<unsigned long long>(attempted_),
                    static_cast<unsigned long long>(failed_), metrics_.c_str());
        std::fflush(stdout);
    }

private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool correct_ = true;
    std::string metrics_;
};

}  // namespace cepbench
