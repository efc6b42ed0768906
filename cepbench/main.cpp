// cepbench: end-to-end benchmark of the CEP server (see README.md).
//
//   cepbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Untraced (--trace 0): cycles of one paced and three flood phases, each
// against a fresh server process, for --seconds; reports steal-ranked
// medians over them.
// Traced (--trace 1): replays the same input in-process through the layer
// calls with spans, plus one paced phase read back through the admin
// scrape, and reports the per-layer metrics. Every RESULT stream of every
// phase is checked against the oracle. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "loadgen.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "workload.hpp"

using namespace cepbench;

namespace {

// Set-up samples per run: every phase gives one; handshake-only phases top
// them up to this many so the reported median stands on enough samples.
constexpr std::size_t kMinSetupSamples = 9;
// Flood phases are short and spread more than paced ones, so each cycle
// runs several.
constexpr int kFloodsPerCycle = 3;
// Phase metrics are medians over this share of the run's phases, the ones
// with the least CPU stolen by the hypervisor (see quiet_median).
constexpr double kQuietShare = 0.5;

double since_s(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Steal-ranked median: the median of `v` over the kQuietShare of phases
// during which the hypervisor stole the least CPU. Interference from other
// tenants only ever slows a phase, and it comes in bursts of tens of
// seconds, so ranking phases by a covariate measured outside the program
// removes it without selecting on the metric's own noise.
double quiet_median(const std::vector<double>& v, const std::vector<double>& steal) {
    std::vector<std::size_t> order(v.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
    const auto n = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(kQuietShare * static_cast<double>(v.size()))));
    std::vector<double> kept;
    for (std::size_t i = 0; i < std::min(n, order.size()); ++i) kept.push_back(v[order[i]]);
    return median(kept);
}

int run_untraced(const Workload& w, const Inputs& in, double seconds) {
    Report rep;
    std::vector<double> setup, eps, flood_steal, p50, p90, cpu, rss, lateness, steal;
    std::vector<double> all_latency;
    const auto start = std::chrono::steady_clock::now();
    double cycle_s = 0;
    // Paced and flood phases alternate so host drift hits both alike; a
    // new cycle starts only if it is expected to end within the budget.
    while (eps.empty() || since_s(start) + cycle_s <= seconds) {
        const auto t0 = std::chrono::steady_clock::now();
        const PhaseResult paced = run_phase(w, in, Pace::Paced, false);
        rep.account(paced);
        setup.push_back(paced.setup_s);
        std::vector<double> lat = paced.latency_ms;
        p50.push_back(percentile(lat, 50));
        p90.push_back(percentile(lat, 90));
        all_latency.insert(all_latency.end(), lat.begin(), lat.end());
        cpu.push_back(paced.server_cpu_s * 1e6 / static_cast<double>(w.events));
        rss.push_back(paced.server_rss_mb);
        lateness.push_back(paced.lateness_ms_max);
        steal.push_back(paced.steal_share);

        for (int f = 0; f < kFloodsPerCycle; ++f) {
            const PhaseResult flood = run_phase(w, in, Pace::Flood, false);
            rep.account(flood);
            setup.push_back(flood.setup_s);
            eps.push_back(flood.flood_s > 0 ? static_cast<double>(w.events) / flood.flood_s : 0);
            flood_steal.push_back(flood.steal_share);
        }
        cycle_s = since_s(t0);
    }
    while (setup.size() < kMinSetupSamples) {
        const PhaseResult s = run_phase(w, in, Pace::None, false);
        rep.account(s);
        setup.push_back(s.setup_s);
    }

    std::printf("diag: paced phases=%zu latency samples=%zu pooled p50_ms=%.4f p90_ms=%.4f "
                "p99_ms=%.4f max_ms=%.4f lateness_ms_max=%.4f setup samples=%zu\n",
                p90.size(), all_latency.size(), percentile(all_latency, 50),
                percentile(all_latency, 90), percentile(all_latency, 99),
                all_latency.empty()
                    ? 0.0
                    : *std::max_element(all_latency.begin(), all_latency.end()),
                *std::max_element(lateness.begin(), lateness.end()), setup.size());
    std::printf("diag: phases {");
    const std::pair<const char*, const std::vector<double>*> series[] = {
        {"p50", &p50},     {"p90", &p90}, {"cpu", &cpu},                 {"rss", &rss},
        {"steal", &steal}, {"eps", &eps}, {"flood_steal", &flood_steal}, {"setup", &setup}};
    for (std::size_t i = 0; i < std::size(series); ++i) {
        std::printf("%s\"%s\": [", i ? ", " : "", series[i].first);
        const auto& v = *series[i].second;
        for (std::size_t j = 0; j < v.size(); ++j) std::printf("%s%.6g", j ? ", " : "", v[j]);
        std::printf("]");
    }
    std::printf("}\n");

    rep.metric("throughput_eps", quiet_median(eps, flood_steal), "1/s");
    rep.metric("latency_p50_ms", quiet_median(p50, steal), "ms");
    rep.metric("latency_p90_ms", quiet_median(p90, steal), "ms");
    rep.metric("cpu_us_per_event", quiet_median(cpu, steal), "us");
    rep.metric("rss_peak_mb", quiet_median(rss, steal), "MB");
    rep.metric("setup_s", median(setup), "s");
    rep.print();
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc == 2 && std::strcmp(argv[1], "--serve") == 0) return serve();

    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* val = argv[i + 1];
        if (key == "--workload") workload = val;
        else if (key == "--seed") seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds") seconds = std::atof(val);
        else if (key == "--trace") trace = std::atoi(val);
        else {
            std::fprintf(stderr, "unknown argument %s\n", key.c_str());
            return 2;
        }
    }
    const Workload* w = find_workload(workload);
    if (!w || seconds <= 0) {
        std::fprintf(stderr,
                     "usage: cepbench --workload <q1-spectre|hub-fanout|sharded-skew> "
                     "--seed <n> --seconds <s> --trace <0|1>\n");
        return 2;
    }
    // Paced sends wake on short timers; keep the kernel from coalescing them.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    try {
        const auto t0 = std::chrono::steady_clock::now();
        const Inputs in = make_inputs(*w, seed);
        std::printf("diag: workload=%s seed=%llu events=%llu inputs_s=%.3f cpu_probe_ns=%.4f\n",
                    w->name.c_str(), static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(w->events), since_s(t0), cpu_probe_ns());
        return trace ? run_traced(*w, in) : run_untraced(*w, in, seconds);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "cepbench: %s\n", e.what());
        return 1;
    }
}
