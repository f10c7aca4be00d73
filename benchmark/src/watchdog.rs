//! The per-run hard timeout (the lesson of the previous benchmark attempt:
//! a hung run must become a non-zero exit, not a hung driver).

use crate::adapter;
use crate::json::Json;
use std::sync::mpsc;
use std::time::Duration;

/// A run that has not finished by then is killed (the driver allows 180 s).
pub const HARD_TIMEOUT: Duration = Duration::from_secs(170);

/// Prints a JSON `error` object on standard error.
pub fn report_error(msg: &str) {
    eprintln!("{}", Json::obj([("error", Json::str(msg))]).render());
}

/// Kills the run if it outlives [`HARD_TIMEOUT`]: worker processes first,
/// then this process, with a JSON `error`. Dropping the guard disarms it.
pub struct Watchdog(Option<mpsc::Sender<()>>);

impl Watchdog {
    pub fn arm(what: String) -> Watchdog {
        let (tx, rx) = mpsc::channel::<()>();
        std::thread::spawn(move || {
            if rx.recv_timeout(HARD_TIMEOUT) == Err(mpsc::RecvTimeoutError::Timeout) {
                adapter::kill_worker_processes();
                report_error(&format!(
                    "{what} exceeded its {} s hard timeout",
                    HARD_TIMEOUT.as_secs()
                ));
                std::process::exit(2);
            }
        });
        Watchdog(Some(tx))
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        // Closing the channel wakes the thread with `Disconnected`.
        drop(self.0.take());
    }
}
