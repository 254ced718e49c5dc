/**
 * @file
 * Client side of the ruusimd protocol: a line-oriented Unix-socket
 * connection with deterministic connect retries (the daemon may still
 * be binding its socket when the client starts), shared by the
 * `ruusim submit` subcommand and the serve tests.
 */

#ifndef RUU_SERVE_CLIENT_HH
#define RUU_SERVE_CLIENT_HH

#include <string>

#include "common/backoff.hh"
#include "common/error.hh"

namespace ruu::serve
{

/**
 * Send @p line plus a newline on socket @p fd, all of it (retrying
 * short writes and EINTR; never SIGPIPE) — both ends of the protocol.
 */
Expected<bool> sendLine(int fd, const std::string &line);

class ServeClient
{
  public:
    ServeClient() = default;
    ~ServeClient() { close(); }

    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /**
     * Connect to @p socketPath, retrying refused/absent sockets on
     * @p retry — the startup race against a daemon that has not bound
     * yet is expected, transient, and bounded.
     */
    Expected<bool> connect(const std::string &socketPath,
                           const BackoffPolicy &retry = {});

    bool connected() const { return _fd >= 0; }

    /** Send one request line (newline appended). */
    Expected<bool> sendLine(const std::string &line);

    /** Receive one response line (without the newline). */
    Expected<std::string> recvLine();

    /** sendLine + recvLine. */
    Expected<std::string> request(const std::string &line);

    void close();

  private:
    int _fd = -1;
    std::string _buffer;
};

} // namespace ruu::serve

#endif // RUU_SERVE_CLIENT_HH
