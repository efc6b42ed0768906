// cepbench load generator: one process, one thread, at most one connection
// per workload session (never more than nproc). The server under test runs
// in a child process (this binary with --serve), so its CPU time and peak
// RSS come from wait4's rusage and nothing of the generator is counted.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "workload.hpp"

namespace cepbench {

// CLOCK_MONOTONIC in nanoseconds: every timestamp the benchmark takes.
std::int64_t now_ns();

// Absolute path of this benchmark binary (the server under test is a second
// process of it).
std::string self_exe();

// Runs the server under test until its stdin closes. Prints
// "PORTS <port> <admin_port>" once it is listening.
int serve();

enum class Pace {
    Paced,  // open loop: event i is due at start + i / rate
    Flood,  // as fast as TCP backpressure allows
    None,   // handshake only (set-up sample)
};

struct PhaseResult {
    double setup_s = 0;           // server spawn -> every capability echo
    double flood_s = 0;           // first DATA sent -> last server BYE
    std::vector<double> latency_ms;  // determining event's due time -> RESULT
    double lateness_ms_max = 0;   // how late the generator sent any event
    std::size_t expected = 0;     // RESULTs the oracle expects
    std::size_t failed = 0;       // missing, wrong or lost to an error
    std::string error;            // first session/transport error, if any
    double server_cpu_s = 0;      // user + sys of the server process
    double server_rss_mb = 0;     // ru_maxrss of the server process
    std::string scrape;           // admin scrape text (when requested)
    double scrape_us = 0;         // its round trip
    double steal_share = 0;       // CPU time the hypervisor stole, share of wall
};

// One phase against a fresh server process. `scrape` fetches the admin
// exposition once every session has ended, before the server stops.
PhaseResult run_phase(const Workload& w, const Inputs& in, Pace pace, bool scrape);

}  // namespace cepbench
