// Signal-safe shutdown flag for long-running daemons (the cpt_serve binary).
//
// install_shutdown_handlers() registers SIGINT/SIGTERM handlers that do
// nothing but set a sig_atomic_t flag — the only thing that is async-signal-
// safe — so the daemon's main loop can poll shutdown_requested() and drain
// gracefully. Handlers are installed without SA_RESTART so a blocking
// accept()/read() returns EINTR and the loop observes the flag promptly.
#pragma once

namespace cpt::util {

// Registers SIGINT and SIGTERM handlers that set the shutdown flag.
void install_shutdown_handlers();

// True once a handled signal arrived.
bool shutdown_requested();

}  // namespace cpt::util
