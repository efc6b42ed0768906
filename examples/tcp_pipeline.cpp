// End-to-end pipeline in the paper's deployment shape (§4.1): a client
// thread streams framed quote events over a loopback TCP connection while the
// engine side runs the SPECTRE runtime *concurrently with ingestion* — a
// feeder thread decodes into the store, windows open as their start events
// arrive and detection advances along the growing store frontier
// (ingest-while-detect, DESIGN.md §6).
#include <cstdio>
#include <memory>
#include <thread>

#include "data/nyse_synth.hpp"
#include "model/markov_model.hpp"
#include "net/tcp.hpp"
#include "queries/paper_queries.hpp"
#include "spectre/runtime.hpp"

using namespace spectre;

int main() {
    auto vocab = data::StockVocab::create(std::make_shared<event::Schema>());

    // Client side: generate the day's quotes and ship them over TCP.
    data::NyseSynthConfig cfg;
    cfg.events = 10'000;
    cfg.symbols = 200;
    cfg.up_prob = 0.55;
    const auto events = data::generate_nyse(vocab, cfg);

    net::TcpSource source(0);  // ephemeral loopback port
    std::printf("listening on 127.0.0.1:%u\n", source.port());
    std::thread client([&] {
        net::TcpClient c("127.0.0.1", source.port());
        c.send_all(events, vocab);
        std::printf("client: sent %zu events\n", events.size());
    });

    // Engine side: Q1 detection starts immediately; events are appended to
    // the shared store as their frames arrive and the splitter opens windows
    // from the live frontier.
    const auto cq = detect::CompiledQuery::compile(
        queries::make_q1(vocab, queries::Q1Params{.q = 4, .ws = 200}));
    core::RuntimeConfig rt_cfg;
    rt_cfg.splitter.instances = 4;
    event::EventStore store;
    core::SpectreRuntime runtime(
        &store, &cq, rt_cfg,
        std::make_unique<model::MarkovModel>(cq.min_length(), model::MarkovParams{}));
    net::TcpStream stream(source, vocab);
    const auto result = runtime.run(stream);
    client.join();
    std::printf("engine: ingested %zu events while detecting\n", store.size());
    std::printf("detected %zu complex events at %.0f events/s\n", result.output.size(),
                result.throughput_eps);
    return 0;
}
