// Small shared socket helpers for the serve transports (internal to
// src/serve: the epoll server's listener and the client's address parsing).
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <string>

namespace cpt::serve::net {

// Parses an IPv4 host:port into a sockaddr_in; throws std::runtime_error on
// a bad address literal.
sockaddr_in make_addr(const std::string& host, std::uint16_t port);

// Creates, binds, and listens a TCP socket on host:port (port 0 picks an
// ephemeral port). Returns the fd and writes the bound port to *actual_port.
// Throws std::runtime_error on socket errors; never leaks the fd on failure.
int listen_socket(const std::string& host, std::uint16_t port, int backlog,
                  std::uint16_t* actual_port);

}  // namespace cpt::serve::net
