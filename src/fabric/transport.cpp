#include "fabric/transport.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/kv.hpp"

namespace gpufi::fabric {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Closes `fd` on an error path, keeping the errno that path reports.
void close_keep_errno(int fd) {
  const int e = errno;
  ::close(fd);
  errno = e;
}

/// IPv4 address of `host` (dotted quad or resolvable name) and `port`.
std::optional<sockaddr_in> ipv4_address(const std::string& host,
                                        std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1) return addr;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), nullptr, &hints, &res) != 0 || !res)
    return std::nullopt;
  addr.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
  ::freeaddrinfo(res);
  return addr;
}

std::optional<sockaddr_un> unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return std::nullopt;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Binds `fd` to `addr` and listens; closes `fd` and throws on failure.
template <class Addr>
int bind_and_listen(int fd, const Addr& addr, int backlog,
                    const std::string& what) {
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    close_keep_errno(fd);
    throw_errno("bind(" + what + ")");
  }
  if (::listen(fd, backlog) < 0) {
    close_keep_errno(fd);
    throw_errno("listen(" + what + ")");
  }
  return fd;
}

/// Connects `fd` to `addr`; returns `fd`, or -1 (errno set) after closing.
template <class Addr>
int connect_or_close(int fd, const Addr& addr) {
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
      0)
    return fd;
  close_keep_errno(fd);
  return -1;
}

int listen_unix(const std::string& path, int backlog) {
  const auto addr = unix_address(path);
  if (!addr) throw std::runtime_error("unix socket path too long: " + path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket(unix)");
  ::unlink(path.c_str());  // a stale file from a dead process would EADDRINUSE
  try {
    return bind_and_listen(fd, *addr, backlog, path);
  } catch (...) {
    ::unlink(path.c_str());
    throw;
  }
}

int listen_tcp(const std::string& host, std::uint16_t port, int backlog) {
  const bool any = host.empty() || host == "0.0.0.0" || host == "*";
  const auto addr = ipv4_address(any ? "0.0.0.0" : host, port);
  if (!addr) throw std::runtime_error("cannot resolve host: " + host);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket(tcp)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  return bind_and_listen(fd, *addr, backlog,
                         host + ":" + std::to_string(port));
}

int connect_unix(const std::string& path) {
  const auto addr = unix_address(path);
  if (!addr) {
    errno = ENAMETOOLONG;
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  return fd < 0 ? -1 : connect_or_close(fd, *addr);
}

int connect_tcp(const std::string& host, std::uint16_t port) {
  const auto addr = ipv4_address(host, port);
  if (!addr) {
    errno = EHOSTUNREACH;
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  // Shard frames are request/response sized, not a bulk stream: favor
  // latency over coalescing.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return connect_or_close(fd, *addr);
}

}  // namespace

std::string Endpoint::describe() const {
  if (kind == Kind::Unix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

std::optional<Endpoint> parse_endpoint(std::string_view s) {
  if (s.empty()) return std::nullopt;
  Endpoint ep;
  if (s.rfind("unix:", 0) == 0) {
    ep.kind = Endpoint::Kind::Unix;
    ep.path = std::string(s.substr(5));
    if (ep.path.empty()) return std::nullopt;
    return ep;
  }
  std::string_view rest = s;
  if (rest.rfind("tcp:", 0) == 0) rest = rest.substr(4);
  const auto colon = rest.rfind(':');
  if (colon == std::string_view::npos) {
    if (rest.data() != s.data()) return std::nullopt;  // "tcp:" without port
    ep.kind = Endpoint::Kind::Unix;
    ep.path = std::string(rest);
    return ep;
  }
  const auto port = kv::parse_number<std::uint16_t>(rest.substr(colon + 1));
  if (!port || colon == 0) return std::nullopt;
  ep.kind = Endpoint::Kind::Tcp;
  ep.host = std::string(rest.substr(0, colon));
  ep.port = *port;
  return ep;
}

int listen_endpoint(const Endpoint& ep, int backlog) {
  return ep.kind == Endpoint::Kind::Unix ? listen_unix(ep.path, backlog)
                                         : listen_tcp(ep.host, ep.port,
                                                      backlog);
}

int connect_endpoint(const Endpoint& ep) {
  return ep.kind == Endpoint::Kind::Unix ? connect_unix(ep.path)
                                         : connect_tcp(ep.host, ep.port);
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0)
    return 0;
  if (addr.sin_family != AF_INET) return 0;
  return ntohs(addr.sin_port);
}

}  // namespace gpufi::fabric
