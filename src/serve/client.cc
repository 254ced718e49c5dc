#include "serve/client.hh"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace ruu::serve
{

Expected<bool>
ServeClient::connect(const std::string &socketPath,
                     const BackoffPolicy &retry)
{
    close();
    sockaddr_un addr{};
    if (socketPath.size() >= sizeof(addr.sun_path))
        return Error("socket path '" + socketPath + "' is too long");
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    Backoff backoff(retry);
    while (true) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return Error(std::string("socket: ") + std::strerror(errno));
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0) {
            _fd = fd;
            _buffer.clear();
            return true;
        }
        int err = errno;
        ::close(fd);
        // ENOENT / ECONNREFUSED: the daemon is still starting up.
        // Anything else is not going to heal by waiting.
        if ((err != ENOENT && err != ECONNREFUSED) ||
            backoff.exhausted())
            return Error("cannot connect to '" + socketPath + "': " +
                         std::strerror(err));
        ::usleep(static_cast<useconds_t>(backoff.nextDelayUs()));
    }
}

Expected<bool>
sendLine(int fd, const std::string &line)
{
    std::string framed = line + "\n";
    std::size_t done = 0;
    while (done < framed.size()) {
        ssize_t n = ::send(fd, framed.data() + done,
                           framed.size() - done, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return Error(std::string("send: ") + std::strerror(errno));
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

Expected<bool>
ServeClient::sendLine(const std::string &line)
{
    if (_fd < 0)
        return Error("not connected");
    return serve::sendLine(_fd, line);
}

Expected<std::string>
ServeClient::recvLine()
{
    if (_fd < 0)
        return Error("not connected");
    char chunk[4096];
    while (true) {
        std::size_t eol = _buffer.find('\n');
        if (eol != std::string::npos) {
            std::string line = _buffer.substr(0, eol);
            _buffer.erase(0, eol + 1);
            return line;
        }
        ssize_t n = ::read(_fd, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return Error(std::string("recv: ") + std::strerror(errno));
        }
        if (n == 0)
            return Error("server closed the connection");
        _buffer.append(chunk, static_cast<std::size_t>(n));
    }
}

Expected<std::string>
ServeClient::request(const std::string &line)
{
    if (auto sent = sendLine(line); !sent)
        return sent.error();
    return recvLine();
}

void
ServeClient::close()
{
    if (_fd >= 0) {
        ::close(_fd);
        _fd = -1;
    }
    _buffer.clear();
}

} // namespace ruu::serve
