#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstdio>
#include <stdexcept>

#include "server/cep_server.hpp"
#include "server/config.hpp"

extern char** environ;

using namespace spectre;

namespace cepbench {

namespace {

constexpr std::int64_t kMs = 1'000'000;
// A phase that has not finished by then has failed (the server wedged).
constexpr std::int64_t kPhaseLimitNs = 120'000 * kMs;

}  // namespace

std::int64_t now_ns() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::string self_exe() {
    char buf[PATH_MAX];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0) throw std::runtime_error("cannot resolve the benchmark binary");
    return std::string(buf, static_cast<std::size_t>(n));
}

namespace {

// The server under test as a child process. stdin is our end-of-life
// signal: closing it makes the server stop() and exit.
struct ServerProc {
    pid_t pid = -1;
    int stdin_fd = -1;
    std::uint16_t port = 0, admin_port = 0;

    ServerProc() {
        int in_pipe[2], out_pipe[2];
        if (pipe2(in_pipe, O_CLOEXEC) != 0 || pipe2(out_pipe, O_CLOEXEC) != 0)
            throw std::runtime_error("pipe2 failed");
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, in_pipe[0], 0);
        posix_spawn_file_actions_adddup2(&fa, out_pipe[1], 1);
        static const std::string exe = self_exe();
        char* argv[] = {const_cast<char*>("cepbench"), const_cast<char*>("--serve"), nullptr};
        const int rc = posix_spawn(&pid, exe.c_str(), &fa, nullptr, argv, environ);
        posix_spawn_file_actions_destroy(&fa);
        close(in_pipe[0]);
        close(out_pipe[1]);
        stdin_fd = in_pipe[1];
        if (rc != 0) {
            close(out_pipe[0]);
            pid = -1;
            throw std::runtime_error("posix_spawn failed");
        }
        std::string line;
        pollfd pfd{out_pipe[0], POLLIN, 0};
        char c = 0;
        while (line.find('\n') == std::string::npos) {
            if (poll(&pfd, 1, 30'000) <= 0 || read(out_pipe[0], &c, 1) != 1) break;
            line += c;
        }
        close(out_pipe[0]);
        unsigned p = 0, a = 0;
        if (std::sscanf(line.c_str(), "PORTS %u %u", &p, &a) != 2)
            throw std::runtime_error("server did not report its ports");
        port = static_cast<std::uint16_t>(p);
        admin_port = static_cast<std::uint16_t>(a);
    }
    ~ServerProc() {
        if (pid > 0) {
            kill(pid, SIGKILL);
            int status = 0;
            waitpid(pid, &status, 0);
        }
        if (stdin_fd >= 0) close(stdin_fd);
    }
    ServerProc(const ServerProc&) = delete;
    ServerProc& operator=(const ServerProc&) = delete;

    // Graceful stop; returns the child's rusage.
    rusage stop() {
        close(stdin_fd);
        stdin_fd = -1;
        rusage ru{};
        int status = 0;
        const std::int64_t deadline = now_ns() + 30'000 * kMs;
        while (true) {
            const pid_t r = wait4(pid, &status, WNOHANG, &ru);
            if (r == pid) break;
            if (r < 0 || now_ns() > deadline) {
                kill(pid, SIGKILL);
                wait4(pid, &status, 0, &ru);
                pid = -1;
                throw std::runtime_error("server did not stop");
            }
            usleep(1000);
        }
        pid = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error("server exited abnormally");
        return ru;
    }
};

int connect_loopback(std::uint16_t port) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        close(fd);
        throw std::runtime_error("connect failed");
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

// One session connection.
struct Conn {
    int fd = -1;
    net::FrameReader reader;
    std::vector<event::ComplexEvent> got;
    std::vector<std::int64_t> recv_ns;
    bool done = false;
    bool bye = false;
    std::uint64_t bye_count = 0;
    std::int64_t bye_ns = 0;
    std::string error;

    ~Conn() {
        if (fd >= 0) close(fd);
    }
};

void send_blocking(int fd, const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t r = send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
        if (r <= 0) throw std::runtime_error("send failed during handshake");
        off += static_cast<std::size_t>(r);
    }
}

// Blocking read of the capability echo that answers a HELLO v2.
void await_echo(Conn& c) {
    std::uint8_t buf[4096];
    while (true) {
        if (auto f = c.reader.poll()) {
            if (std::holds_alternative<net::Hello2Frame>(*f)) return;
            if (auto* e = std::get_if<net::ErrorFrame>(&*f))
                throw std::runtime_error("handshake refused: " + e->message);
            throw std::runtime_error("unexpected frame before the capability echo");
        }
        pollfd pfd{c.fd, POLLIN, 0};
        if (poll(&pfd, 1, 30'000) <= 0) throw std::runtime_error("no capability echo");
        const ssize_t r = recv(c.fd, buf, sizeof(buf), 0);
        if (r <= 0) throw std::runtime_error("connection closed during handshake");
        c.reader.feed(buf, static_cast<std::size_t>(r));
    }
}

void handshake(const Workload& w, std::uint16_t port, std::vector<Conn>& conns) {
    for (std::size_t i = 0; i < w.sessions.size(); ++i) {
        const SessionSpec& s = w.sessions[i];
        Conn& c = conns[i];
        c.fd = connect_loopback(port);
        net::Hello2Frame hello;
        hello.set("role", s.role);
        if (s.role != "standalone") hello.set("stream", "ticks");
        if (!s.query.empty()) hello.set("query", s.query);
        if (s.instances > 0) hello.set("instances", std::to_string(s.instances));
        if (s.shards > 0) hello.set("shards", std::to_string(s.shards));
        std::vector<std::uint8_t> bytes;
        net::encode_frame(net::SessionFrame{std::move(hello)}, bytes);
        send_blocking(c.fd, bytes);
        await_echo(c);
    }
    for (auto& c : conns) fcntl(c.fd, F_SETFL, fcntl(c.fd, F_GETFL) | O_NONBLOCK);
}

// Drains everything readable on `c`, stamping each RESULT with the time of
// the recv() that completed it.
void read_conn(Conn& c) {
    static std::vector<std::uint8_t> buf(256 * 1024);
    while (!c.done) {
        const ssize_t r = recv(c.fd, buf.data(), buf.size(), 0);
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        if (r < 0 && errno == EINTR) continue;
        if (r <= 0) {
            c.error = "connection closed before the server's BYE";
            c.done = true;
            return;
        }
        const std::int64_t t = now_ns();
        c.reader.feed(buf.data(), static_cast<std::size_t>(r));
        try {
            while (auto f = c.reader.poll()) {
                if (auto* res = std::get_if<net::ResultFrame>(&*f)) {
                    c.got.push_back(net::from_result_frame(*res));
                    c.recv_ns.push_back(t);
                } else if (auto* bye = std::get_if<net::ByeFrame>(&*f)) {
                    c.bye = true;
                    c.bye_count = bye->results;
                    c.bye_ns = t;
                    c.done = true;
                    return;
                } else if (auto* err = std::get_if<net::ErrorFrame>(&*f)) {
                    c.error = "server error: " + err->message;
                    c.done = true;
                    return;
                }
            }
        } catch (const std::exception& e) {
            c.error = std::string("corrupt frame from the server: ") + e.what();
            c.done = true;
            return;
        }
    }
}

std::string http_get(std::uint16_t port) {
    const int fd = connect_loopback(port);
    const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
    send_blocking(fd, std::vector<std::uint8_t>(req.begin(), req.end()));
    std::string out;
    char buf[16384];
    while (true) {
        pollfd pfd{fd, POLLIN, 0};
        if (poll(&pfd, 1, 10'000) <= 0) break;
        const ssize_t r = recv(fd, buf, sizeof(buf), 0);
        if (r <= 0) break;
        out.append(buf, static_cast<std::size_t>(r));
    }
    close(fd);
    return out;
}

// Steal and total jiffies summed over all CPUs (/proc/stat "cpu" line).
std::pair<double, double> steal_jiffies() {
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (!f) return {0, 0};
    unsigned long long v[8] = {};
    const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                                &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
    std::fclose(f);
    if (got != 8) return {0, 0};
    double total = 0;
    for (auto x : v) total += static_cast<double>(x);
    return {static_cast<double>(v[7]), total};
}

}  // namespace

int serve() {
    server::CepServer srv(server::ServerConfigBuilder{}.pool_workers(2).build());
    srv.start();
    std::printf("PORTS %u %u\n", static_cast<unsigned>(srv.port()),
                static_cast<unsigned>(srv.admin_port()));
    std::fflush(stdout);
    char buf[256];
    while (read(0, buf, sizeof(buf)) > 0) {
    }
    srv.stop();
    return 0;
}

PhaseResult run_phase(const Workload& w, const Inputs& in, Pace pace, bool scrape) {
    PhaseResult out;
    const auto steal0 = steal_jiffies();
    const std::int64_t spawn_ns = now_ns();
    ServerProc srv;
    std::vector<Conn> conns(w.sessions.size());
    handshake(w, srv.port, conns);
    out.setup_s = static_cast<double>(now_ns() - spawn_ns) * 1e-9;

    if (pace != Pace::None) {
        const std::size_t n = in.frame_end.size();
        const std::size_t total = in.data_bytes.size();
        std::vector<std::uint8_t> bye;
        net::encode_frame(net::SessionFrame{net::ByeFrame{0}}, bye);
        const double period_ns = 1e9 / w.rate_eps;
        const std::int64_t t0 = now_ns() + 2 * kMs;
        const auto due = [&](std::size_t i) {
            return t0 + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
        };
        const std::int64_t limit = t0 + kPhaseLimitNs;
        Conn& data = conns[0];
        std::size_t target_evt = 0, covered = 0, sent = 0, bye_sent = 0;
        std::int64_t first_send_ns = 0, late_max_ns = 0;
        bool blocked = false;
        std::vector<pollfd> pfds(conns.size());

        while (true) {
            bool all_done = true;
            for (const auto& c : conns) all_done = all_done && c.done;
            if (all_done) break;
            std::int64_t now = now_ns();
            if (now > limit) {
                out.error = "phase timed out";
                break;
            }
            if (pace == Pace::Flood) {
                target_evt = n;
            } else {
                while (target_evt < n && due(target_evt) <= now) ++target_evt;
            }
            const std::size_t target_off = target_evt ? in.frame_end[target_evt - 1] : 0;
            blocked = false;
            if (!data.done && sent < target_off) {
                const ssize_t r = send(data.fd, in.data_bytes.data() + sent, target_off - sent,
                                       MSG_NOSIGNAL | MSG_DONTWAIT);
                if (r > 0) {
                    if (first_send_ns == 0) first_send_ns = now;
                    sent += static_cast<std::size_t>(r);
                    now = now_ns();
                    while (covered < n && in.frame_end[covered] <= sent) {
                        if (pace == Pace::Paced)
                            late_max_ns = std::max(late_max_ns, now - due(covered));
                        ++covered;
                    }
                } else if (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
                    data.error = "send failed";
                    data.done = true;
                }
                blocked = sent < target_off;
            }
            if (!data.done && sent == total && bye_sent < bye.size()) {
                const ssize_t r = send(data.fd, bye.data() + bye_sent, bye.size() - bye_sent,
                                       MSG_NOSIGNAL | MSG_DONTWAIT);
                if (r > 0) bye_sent += static_cast<std::size_t>(r);
                blocked = bye_sent < bye.size();
            }

            // Sleep until the next event is due, a socket is readable, or the
            // data socket drains. The generator never spins: its core belongs
            // to the server's reactor and workers.
            std::int64_t wait_ns = 100 * kMs;
            if (pace == Pace::Paced && target_evt < n)
                wait_ns = std::max<std::int64_t>(0, due(target_evt) - now_ns());
            for (std::size_t i = 0; i < conns.size(); ++i) {
                // A finished session's socket may report hang-up forever;
                // a negative fd takes it out of the poll set.
                pfds[i] = {conns[i].done ? -1 : conns[i].fd, POLLIN, 0};
                if (i == 0 && blocked) pfds[i].events |= POLLOUT;
            }
            const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                              static_cast<long>(wait_ns % 1'000'000'000)};
            if (ppoll(pfds.data(), pfds.size(), &ts, nullptr) > 0)
                for (std::size_t i = 0; i < conns.size(); ++i)
                    if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) read_conn(conns[i]);
        }

        std::int64_t last_bye_ns = 0;
        for (std::size_t i = 0; i < conns.size(); ++i) {
            Conn& c = conns[i];
            const Reference& ref = in.expected[i];
            if (c.error.empty() && !c.bye) c.error = "no BYE from the server";
            if (out.error.empty() && !c.error.empty()) out.error = c.error;
            last_bye_ns = std::max(last_bye_ns, c.bye_ns);
            out.expected += ref.results.size();
            const std::size_t failed = count_failed(ref.results, c.got);
            out.failed += failed;
            if (failed == 0 && c.bye && c.bye_count != ref.results.size()) {
                out.failed += 1;
                if (out.error.empty()) out.error = "BYE count disagrees with the results";
            }
            if (pace != Pace::Paced) continue;
            for (std::size_t j = 0; j < std::min(c.got.size(), ref.results.size()); ++j)
                if (c.got[j] == ref.results[j])
                    out.latency_ms.push_back(static_cast<double>(c.recv_ns[j] - due(ref.det[j])) /
                                             static_cast<double>(kMs));
        }
        out.failed = std::min(out.failed, out.expected);
        if (pace == Pace::Flood && first_send_ns > 0)
            out.flood_s = static_cast<double>(last_bye_ns - first_send_ns) * 1e-9;
        out.lateness_ms_max = static_cast<double>(late_max_ns) / static_cast<double>(kMs);
    }

    if (scrape) {
        const std::int64_t s0 = now_ns();
        out.scrape = http_get(srv.admin_port);
        out.scrape_us = static_cast<double>(now_ns() - s0) * 1e-3;
    }
    for (auto& c : conns) {
        close(c.fd);
        c.fd = -1;
    }
    const rusage ru = srv.stop();
    const auto steal1 = steal_jiffies();
    if (steal1.second > steal0.second)
        out.steal_share = (steal1.first - steal0.first) / (steal1.second - steal0.second);
    out.server_cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                       static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
    out.server_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return out;
}

}  // namespace cepbench
