#pragma once
// Streaming loopback HTTP client for the chat_http workload.
//
// net::LoadGen starts a request's clock when it launches and keeps no
// per-token times, so the benchmark carries its own client: one thread,
// a fixed set of keep-alive connections multiplexed by epoll, a timerfd
// that wakes it at the next due time, and the arrival time of every
// transfer chunk of every response.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sb/stats.h"
#include "net/http.h"

namespace servebench {

/// One HTTP response with the arrival time of each transfer chunk: the
/// time of the read that completed the chunk.
class TimedResponse {
 public:
  using Status = matgpt::net::HttpResponseParser::Status;

  Status feed(std::string_view bytes, double now_s);

  const matgpt::net::HttpResponseParser& parser() const { return parser_; }
  Status status() const { return parser_.status(); }
  /// Parallel to parser().chunks().
  const std::vector<double>& chunk_times() const { return chunk_times_; }
  /// Time of the read that completed the response (-1 while incomplete).
  double done_s() const { return done_s_; }

 private:
  matgpt::net::HttpResponseParser parser_;
  std::vector<double> chunk_times_;
  double done_s_ = -1.0;
};

/// A /v1/generate stream decoded from its chunks: an {"id"} chunk, one
/// {"token"} chunk per token, and a final {"done": true, ...} chunk.
struct GenerateStream {
  std::vector<std::int32_t> tokens;
  std::vector<double> token_times;
  bool done = false;
  std::string status;
  double engine_ttft_ms = -1.0;
  double engine_total_ms = -1.0;
  std::int64_t generated = 0;
};

/// Throws matgpt::Error on a chunk that is not one of the three shapes.
GenerateStream decode_generate(const TimedResponse& response);

/// The bytes of one keep-alive HTTP/1.1 request.
std::string http_request(std::string_view method, std::string_view target,
                         std::string_view body);

/// A blocking keep-alive connection for exchanges outside the timed window
/// (session creation, /v1/stats snapshots, warm-up).
class BlockingConnection {
 public:
  explicit BlockingConnection(std::uint16_t port);
  ~BlockingConnection();
  BlockingConnection(const BlockingConnection&) = delete;
  BlockingConnection& operator=(const BlockingConnection&) = delete;

  /// Send one request and read until its response is complete; throws on a
  /// transport or protocol error.
  TimedResponse exchange(std::string_view method, std::string_view target,
                         std::string_view body);

 private:
  int fd_ = -1;
};

/// `size` nonblocking keep-alive connections driven from one thread.
class ConnectionPool {
 public:
  /// Connects every connection; times are measured from `t0`, which may
  /// be set later with set_origin().
  ConnectionPool(std::uint16_t port, std::size_t size);
  ~ConnectionPool();
  ConnectionPool(const ConnectionPool&) = delete;
  ConnectionPool& operator=(const ConnectionPool&) = delete;

  void set_origin(Clock::time_point t0) { t0_ = t0; }
  std::size_t size() const { return conns_.size(); }
  /// Index of the connection idle the longest, or size() when all are busy.
  std::size_t idle_connection() const;
  /// When connection `i` last became idle (seconds from t0).
  double idle_since(std::size_t i) const { return conns_[i].idle_since; }
  std::size_t busy_count() const;

  /// Start request `bytes` on idle connection `i`.
  void send(std::size_t i, std::string bytes);

  /// A connection whose exchange ended: a complete response, or a
  /// transport/protocol failure (`error` non-empty).
  struct Completion {
    std::size_t conn = 0;
    TimedResponse response;
    std::string error;
  };

  /// Block until at least one exchange ends or `wake_at_s` (seconds from
  /// t0; negative = no timer) passes, and return the ended exchanges.
  std::vector<Completion> poll(double wake_at_s);

 private:
  struct Conn {
    int fd = -1;
    bool busy = false;
    std::string out;
    std::size_t out_off = 0;
    TimedResponse response;
    double idle_since = 0.0;
  };

  void open(std::size_t i);
  void close_conn(std::size_t i);
  void update_events(std::size_t i);
  /// Returns a non-empty error when the exchange failed.
  std::string flush(std::size_t i);
  std::string read_ready(std::size_t i, double now_s);

  std::uint16_t port_;
  Clock::time_point t0_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  std::vector<Conn> conns_;
};

}  // namespace servebench
