#include "sb/http_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.h"
#include "net/json.h"

namespace servebench {

using matgpt::net::Json;

TimedResponse::Status TimedResponse::feed(std::string_view bytes,
                                          double now_s) {
  const Status s = parser_.feed(bytes);
  while (chunk_times_.size() < parser_.chunks().size()) {
    chunk_times_.push_back(now_s);
  }
  if (s == Status::kDone && done_s_ < 0.0) done_s_ = now_s;
  return s;
}

GenerateStream decode_generate(const TimedResponse& response) {
  GenerateStream out;
  const auto& chunks = response.parser().chunks();
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const Json doc = Json::parse(chunks[i]);
    MGPT_CHECK(doc.is_object(), "stream chunk " << i << " is not an object");
    if (const Json* t = doc.find("token")) {
      MGPT_CHECK(!out.done, "token chunk after the done chunk");
      out.tokens.push_back(static_cast<std::int32_t>(t->as_int()));
      out.token_times.push_back(response.chunk_times()[i]);
    } else if (doc.find("done") != nullptr) {
      MGPT_CHECK(!out.done, "two done chunks");
      out.done = true;
      out.status = doc.find("status")->as_string();
      out.engine_ttft_ms = doc.find("ttft_ms")->as_number();
      out.engine_total_ms = doc.find("total_ms")->as_number();
      out.generated = doc.find("generated")->as_int();
    } else {
      MGPT_CHECK(doc.find("id") != nullptr && i == 0,
                 "unexpected stream chunk " << i << ": " << chunks[i]);
    }
  }
  return out;
}

std::string http_request(std::string_view method, std::string_view target,
                         std::string_view body) {
  std::string out;
  out.reserve(body.size() + 128);
  out.append(method).append(" ").append(target).append(" HTTP/1.1\r\n");
  out += "Host: 127.0.0.1\r\n";
  if (!body.empty()) out += "Content-Type: application/json\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  out.append(body);
  return out;
}

namespace {

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  MGPT_CHECK(fd >= 0, "socket: " << std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(fd);
    MGPT_CHECK(false, "connect 127.0.0.1:" << port << ": "
                                           << std::strerror(err));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

timespec to_timespec(Clock::time_point t) {
  // libstdc++'s steady_clock reads CLOCK_MONOTONIC, the timerfd's clock.
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      t.time_since_epoch())
                      .count();
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1000000000);
  ts.tv_nsec = static_cast<long>(ns % 1000000000);
  return ts;
}

}  // namespace

BlockingConnection::BlockingConnection(std::uint16_t port)
    : fd_(connect_loopback(port)) {}

BlockingConnection::~BlockingConnection() {
  if (fd_ >= 0) ::close(fd_);
}

TimedResponse BlockingConnection::exchange(std::string_view method,
                                           std::string_view target,
                                           std::string_view body) {
  const std::string bytes = http_request(method, target, body);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    MGPT_CHECK(n > 0, "send: " << std::strerror(errno));
    off += static_cast<std::size_t>(n);
  }
  TimedResponse response;
  char buf[65536];
  while (response.status() == TimedResponse::Status::kNeedMore) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    MGPT_CHECK(n > 0, "recv " << target << ": "
                              << (n == 0 ? "closed" : std::strerror(errno)));
    response.feed(std::string_view(buf, static_cast<std::size_t>(n)), 0.0);
  }
  MGPT_CHECK(response.status() == TimedResponse::Status::kDone,
             "bad response to " << target << ": "
                                << response.parser().error_reason());
  return response;
}

ConnectionPool::ConnectionPool(std::uint16_t port, std::size_t size)
    : port_(port), t0_(Clock::now()), conns_(size) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  MGPT_CHECK(epoll_fd_ >= 0, "epoll_create1: " << std::strerror(errno));
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  MGPT_CHECK(timer_fd_ >= 0, "timerfd_create: " << std::strerror(errno));
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = size;  // the timer's tag: one past the last connection
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev);
  for (std::size_t i = 0; i < size; ++i) open(i);
}

ConnectionPool::~ConnectionPool() {
  for (std::size_t i = 0; i < conns_.size(); ++i) close_conn(i);
  if (timer_fd_ >= 0) ::close(timer_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void ConnectionPool::open(std::size_t i) {
  Conn& c = conns_[i];
  c.fd = connect_loopback(port_);
  ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = i;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c.fd, &ev);
}

void ConnectionPool::close_conn(std::size_t i) {
  Conn& c = conns_[i];
  if (c.fd < 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
  ::close(c.fd);
  c.fd = -1;
}

std::size_t ConnectionPool::idle_connection() const {
  std::size_t best = conns_.size();
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i].busy) continue;
    if (best == conns_.size() || conns_[i].idle_since < conns_[best].idle_since) {
      best = i;
    }
  }
  return best;
}

std::size_t ConnectionPool::busy_count() const {
  std::size_t n = 0;
  for (const Conn& c : conns_) n += c.busy ? 1 : 0;
  return n;
}

void ConnectionPool::update_events(std::size_t i) {
  Conn& c = conns_[i];
  epoll_event ev{};
  ev.events = EPOLLIN | (c.out_off < c.out.size() ? EPOLLOUT : 0u);
  ev.data.u64 = i;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
}

void ConnectionPool::send(std::size_t i, std::string bytes) {
  Conn& c = conns_[i];
  MGPT_CHECK(!c.busy, "connection " << i << " is busy");
  c.busy = true;
  c.out = std::move(bytes);
  c.out_off = 0;
  c.response = TimedResponse();
  // A failed first write surfaces on the next poll as EPOLLERR/EPOLLHUP.
  (void)flush(i);
  if (c.out_off < c.out.size()) update_events(i);
}

std::string ConnectionPool::flush(std::size_t i) {
  Conn& c = conns_[i];
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return {};
    return std::string("send: ") + std::strerror(errno);
  }
  return {};
}

std::string ConnectionPool::read_ready(std::size_t i, double now_s) {
  Conn& c = conns_[i];
  char buf[65536];
  while (true) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n > 0) {
      if (!c.busy) return "unsolicited bytes from the server";
      const auto s =
          c.response.feed(std::string_view(buf, static_cast<std::size_t>(n)),
                          now_s);
      if (s == TimedResponse::Status::kError) {
        return "bad response: " + c.response.parser().error_reason();
      }
      continue;
    }
    if (n == 0) return "connection closed by the server";
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return {};
    return std::string("recv: ") + std::strerror(errno);
  }
}

std::vector<ConnectionPool::Completion> ConnectionPool::poll(
    double wake_at_s) {
  itimerspec spec{};
  if (wake_at_s >= 0.0) {
    spec.it_value = to_timespec(
        t0_ + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(wake_at_s)));
    if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) {
      spec.it_value.tv_nsec = 1;  // zero would disarm the timer
    }
  }
  ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);

  std::vector<Completion> done;
  epoll_event events[64];
  int n = -1;
  while (n < 0) {
    n = ::epoll_wait(epoll_fd_, events, 64, -1);
    MGPT_CHECK(n >= 0 || errno == EINTR, "epoll_wait: " << std::strerror(errno));
  }
  const double now_s = seconds_since(t0_, Clock::now());
  for (int e = 0; e < n; ++e) {
    const std::size_t i = events[e].data.u64;
    if (i == conns_.size()) {
      std::uint64_t expirations = 0;
      (void)::read(timer_fd_, &expirations, sizeof expirations);
      continue;
    }
    Conn& c = conns_[i];
    std::string error;
    if (events[e].events & EPOLLOUT) error = flush(i);
    if (error.empty() && (events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP))) {
      error = read_ready(i, now_s);
    }
    if (error.empty() && c.out_off >= c.out.size()) update_events(i);
    const bool complete =
        c.busy && c.response.status() == TimedResponse::Status::kDone;
    if (!error.empty() || complete) {
      if (c.busy) {
        done.push_back({i, std::move(c.response), error});
        c.busy = false;
        c.idle_since = now_s;
      }
      if (!error.empty()) {
        close_conn(i);
        open(i);
      }
    }
  }
  return done;
}

}  // namespace servebench
