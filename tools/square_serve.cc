/**
 * @file
 * square_serve: the compile service on stdin/stdout.
 *
 * Reads one newline-delimited JSON request per line (see
 * src/service/protocol.h for the request/reply grammar), serves each
 * through a process-lifetime, one-shard CompileServer that is never
 * started — the server's own dispatcher (src/server/server.h) without
 * sockets, so repeated requests hit the content-addressed result cache
 * — and writes one JSON reply line per request.  Scriptable with no
 * network dependency:
 *
 *   printf '%s\n' \
 *     '{"id":1,"workload":"ADDER4","policy":"square"}' \
 *     '{"id":2,"workload":"ADDER4","policy":"eager"}' \
 *     '{"id":3,"workload":"ADDER4","policy":"square"}' \
 *     '{"cmd":"stats"}' | square_serve
 *
 * Every compile runs on the calling thread.  {"cmd":"shutdown"} is
 * acknowledged and stops the read loop, like end of input.
 *
 * Flags:
 *   --quiet       suppress the startup banner and summary on stderr
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "server/server.h"

using namespace square;

int
main(int argc, char **argv)
{
    bool quiet = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else {
            std::fprintf(stderr, "usage: square_serve [--quiet]\n");
            return 1;
        }
    }

    ServerConfig cfg;
    cfg.shards = 1;
    cfg.workersPerShard = 1;
    CompileServer server(cfg);
    if (!quiet) {
        std::fprintf(stderr,
                     "square_serve: one JSON request per line on stdin "
                     "({\"cmd\":\"stats\"} for counters)\n");
    }

    std::string line, out;
    bool close_conn = false;
    while (!close_conn && std::getline(std::cin, line)) {
        out.clear();
        server.handleLineTo(line, out, close_conn);
        std::fwrite(out.data(), 1, out.size(), stdout);
        std::fflush(stdout);
    }

    // Final counters to stderr so piped stdout stays machine-parsable.
    if (!quiet) {
        // Requests that failed to resolve (unknown workload, bad
        // program) never reach the shard; count them as served
        // failures.
        RouterStats s = server.router().stats();
        std::fprintf(stderr,
                     "square_serve: served %lld requests (%lld hits, "
                     "%lld compiles, %lld failures)\n",
                     static_cast<long long>(s.global.requests +
                                            s.resolveFailures),
                     static_cast<long long>(s.global.hits),
                     static_cast<long long>(s.global.compiles),
                     static_cast<long long>(s.global.failures +
                                            s.resolveFailures));
    }
    return 0;
}
