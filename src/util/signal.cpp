#include "signal.hpp"

#include <csignal>

namespace cpt::util {

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

extern "C" void cpt_shutdown_handler(int) { g_shutdown = 1; }

}  // namespace

void install_shutdown_handlers() {
    struct sigaction sa = {};
    sa.sa_handler = cpt_shutdown_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // deliberately no SA_RESTART: blocking syscalls get EINTR
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

bool shutdown_requested() { return g_shutdown != 0; }

}  // namespace cpt::util
