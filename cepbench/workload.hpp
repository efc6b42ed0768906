// cepbench workloads: what each one sends, to which sessions, at what rate,
// and the reference results every RESULT stream is checked against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "event/event.hpp"
#include "net/session.hpp"

namespace cepbench {

// One connection of a workload. sessions[0] carries the DATA stream; every
// session with a query receives a RESULT stream.
struct SessionSpec {
    std::string role;        // HELLO v2 role: standalone | publish | subscribe
    std::string query;       // empty for the publisher
    std::uint32_t instances = 0;
    std::uint32_t shards = 0;
};

struct Workload {
    std::string name;
    std::vector<SessionSpec> sessions;
    std::uint64_t events = 0;     // fixed stream length (part of the definition)
    double rate_eps = 0;          // offered rate of the paced phase
    std::size_t replay_batch = 1; // arrivals per engine step in the traced replay
    bool partitioned = false;     // reference is the partitioned oracle
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

// The paper's Q1 (MLE + q rising quotes within ws events FROM MLE, CONSUME
// ALL) as query text, q = 8, ws = 800.
std::string q1_text();
// The per-key rising triple run by sharded-skew (PARTITION BY SUBJECT).
std::string shard_query_text();

// The workload's stream of quotes for `seed`.
std::vector<spectre::net::WireQuote> make_stream(const Workload& w, std::uint64_t seed);

// Reference run of one query over a stream: the reference engine (the
// sequential stepper, or per-key lanes for a PARTITION BY query) stepped to
// quiescence after every arrival. det[j] is result j's determining event:
// the arrival after which the reference first emitted it (end-of-stream
// results get the last arrival). Also times the two layer calls it makes.
struct Reference {
    std::vector<spectre::event::ComplexEvent> results;
    std::vector<std::uint32_t> det;
    double append_ns_per_event = 0;
    double drain_ns_per_event = 0;
};
Reference reference_run(const std::string& query, bool partitioned,
                        const std::vector<spectre::net::WireQuote>& wire);

// Everything a run needs, made once per seed before any timing: the stream,
// its wire bytes, and per session the expected results with their
// determining events.
struct Inputs {
    std::vector<spectre::net::WireQuote> wire;
    std::vector<std::uint8_t> data_bytes;  // DATA frames, in stream order
    std::vector<std::size_t> frame_end;    // end offset of event i's frame
    std::vector<Reference> expected;       // per session (empty for the publisher)
    double append_ns_per_event = 0;        // first query's reference run
    double drain_ns_per_event = 0;         // summed over the workload's queries
};
Inputs make_inputs(const Workload& w, std::uint64_t seed);

// Result streams equal in the repo's byte-identity sense; returns how many
// expected results are missing or differ (extra results count too, capped
// at the expected count).
std::size_t count_failed(const std::vector<spectre::event::ComplexEvent>& expected,
                         const std::vector<spectre::event::ComplexEvent>& got);

}  // namespace cepbench
