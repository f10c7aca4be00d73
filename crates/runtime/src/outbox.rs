//! One connection's coalescing write buffer and its flush role.
//!
//! Frames append to the buffer under its lock and nothing else happens —
//! no thread is woken. Whoever filled the buffer flushes it: a pool worker
//! after an activation or before it parks, a connection's reader after a
//! read, the teardown. One flusher at a time holds the **flush role**; a
//! caller that finds it taken returns at once and leaves its bytes to the
//! holder, which re-checks the buffer under the same lock hold that gives
//! the role up, so no frame is stranded. Every frame queued since the last
//! flush shares its `write` calls.
//!
//! A sink that accepts nothing for a while (a peer that stopped reading;
//! the socket's write timeout expires) ends the flush with the unwritten
//! tail left at the head of the buffer, ahead of anything appended since:
//! the next caller of [`Outbox::flush`] resumes it. A stalled peer costs a
//! flusher one timeout, never its thread.
//!
//! Generic over its [`Sink`] so the model checker can drive the protocol
//! against an in-memory sink (`model_tests.rs`).

use crate::sync::{relock, Mutex};

/// Where an outbox's bytes go: a `TcpStream` in the socket mesh.
pub(crate) trait Sink {
    /// Writes a prefix of `bytes` and returns its length, or fails. An
    /// error — a timeout or a torn socket — ends the flush; the bytes stay
    /// queued.
    fn write(&self, bytes: &[u8]) -> std::io::Result<usize>;
    /// Closes the sink's write side.
    fn close(&self);
}

/// What one [`Outbox::flush`] put through the sink.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Drained {
    /// Buffers drained whole — each one swap of the queued bytes, written
    /// with as few `write` calls as the sink allows.
    pub(crate) flushes: u64,
    /// Frames in those buffers.
    pub(crate) frames: u64,
    /// Bytes the sink accepted, a stalled tail's included.
    pub(crate) bytes: u64,
}

struct Queue {
    /// Bytes not yet written, oldest first.
    buf: Vec<u8>,
    /// Frames appended to `buf` since its last whole drain.
    frames: u64,
    /// The flush role is held.
    flushing: bool,
    /// No more appends; the sink closes when the role is next given up.
    closing: bool,
    closed: bool,
    /// The drained buffer's allocation, kept for the next swap.
    spare: Vec<u8>,
}

/// A coalescing write buffer over a [`Sink`] (module docs).
pub(crate) struct Outbox<S> {
    sink: S,
    q: Mutex<Queue>,
}

impl<S: Sink> Outbox<S> {
    pub(crate) fn new(sink: S) -> Outbox<S> {
        Outbox {
            sink,
            q: Mutex::new(Queue {
                buf: Vec::new(),
                frames: 0,
                flushing: false,
                closing: false,
                closed: false,
                spare: Vec::new(),
            }),
        }
    }

    pub(crate) fn sink(&self) -> &S {
        &self.sink
    }

    /// Appends the `frames` frames `encode` writes, in place. Refused
    /// (`false`, and `encode` not called) once the outbox is closing.
    pub(crate) fn append(&self, frames: u64, encode: impl FnOnce(&mut Vec<u8>)) -> bool {
        let mut q = relock(&self.q);
        if q.closing {
            return false;
        }
        encode(&mut q.buf);
        q.frames += frames;
        true
    }

    /// Bytes queued and not yet written.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> usize {
        relock(&self.q).buf.len()
    }

    /// Drains the buffer through the sink unless another caller holds the
    /// flush role — then that holder writes these bytes too.
    pub(crate) fn flush(&self) -> Drained {
        let mut done = Drained::default();
        let mut q = relock(&self.q);
        if q.flushing || q.closed {
            return done;
        }
        q.flushing = true;
        let mut out = std::mem::take(&mut q.spare);
        // The re-check: the role is given up only under the lock hold that
        // found the buffer empty (or gave up on a stalled sink).
        while !q.buf.is_empty() {
            std::mem::swap(&mut out, &mut q.buf);
            let frames = std::mem::take(&mut q.frames);
            drop(q);
            let written = self.write_out(&out);
            done.bytes += written as u64;
            q = relock(&self.q);
            if written < out.len() {
                // The unwritten tail goes back ahead of what was appended
                // meanwhile; its frames count when it is written.
                out.drain(..written);
                out.extend_from_slice(&q.buf);
                std::mem::swap(&mut out, &mut q.buf);
                q.frames += frames;
                out.clear();
                break;
            }
            done.flushes += 1;
            done.frames += frames;
            out.clear();
        }
        q.spare = out;
        q.flushing = false;
        if q.closing {
            q.closed = true;
            q.buf = Vec::new();
            drop(q);
            self.sink.close();
        }
        done
    }

    /// Refuses further appends after the frame `last` writes (if it writes
    /// one), flushes, and closes the sink — at once, or when the current
    /// holder of the flush role gives it up. Idempotent.
    pub(crate) fn close(&self, last: impl FnOnce(&mut Vec<u8>)) -> Drained {
        {
            let mut q = relock(&self.q);
            if q.closing {
                return Drained::default();
            }
            let before = q.buf.len();
            last(&mut q.buf);
            q.frames += u64::from(q.buf.len() > before);
            q.closing = true;
        }
        self.flush()
    }

    /// Writes `bytes` until done or the sink fails; returns how many went.
    fn write_out(&self, bytes: &[u8]) -> usize {
        let mut off = 0;
        while off < bytes.len() {
            match self.sink.write(&bytes[off..]) {
                Ok(0) => break,
                Ok(n) => off += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        off
    }
}
