//! The socket transport: one `SystemLayout` deployed across OS processes,
//! with the credit protocol carried on a zero-copy binary wire.
//!
//! Each process runs the same worker-pool engine ([`crate::engine`]) over
//! the *same* actor id space; a process plan (`actor index → process`)
//! decides which actors are live locally and which are inert
//! [`RemoteStub`]s. Sends to remote actors are encoded **straight from the
//! `Arc`'d batch into the destination connection's shared write buffer**
//! (`borealis_dpc::encode_frame` appends in place — no intermediate
//! message allocation), where they coalesce with every other frame queued
//! since the last flush; a dedicated writer thread swaps the buffer out
//! under the lock and drains it with as few `write` syscalls as the kernel
//! allows, so heartbeats, acks, and grants amortize into one syscall
//! (see [`WireGauges::frames_per_flush`]).
//!
//! **Credits cross the wire.** The sending process's link
//! [`Fabric`](borealis_sim::Fabric) holds the credit ledger, and that ledger
//! *is* the wire window: a `Data` frame debits it in `Fabric::send`
//! exactly as an in-process send would, and the receiving process returns
//! the credit with an explicit `CreditGrant` frame (replacing the
//! in-process `Replenish` wheel entry) whose header names the data link
//! `from → to`. On grant receipt the sender releases the next queued
//! message from its own ledger and puts it on the wire. The stall of a
//! link is read where its ledger lives, by the sender
//! (`RuntimeCtx::outbound_stall`), and reaches the receiver inside the
//! sender's `HeartbeatResp` — the same path on every runtime, so SUnion's
//! overload detection and the §6 delay budget work unchanged across the
//! wire.
//!
//! **Connection reset = crash.** A torn connection (read error, EOF
//! without a `Goodbye` frame, a corrupt frame, or a header whose actor ids
//! the plan does not place on this connection's two ends) marks every
//! actor of the dead peer process `NodeDown` in the local fabric — the
//! same `Fabric::apply` a scripted fault meets on worker 0's wheel: queued
//! credit-stalled sends purge as counted delivery drops and later sends
//! count as send drops, so the chaos semantics of the two transports are
//! identical. The scripted fault script itself replays in *every* process
//! against its own fabric, which keeps reachability decisions consistent
//! without any cross-process coordination.
//!
//! **Crashed processes may come back.** Every process keeps its listener
//! open on a persistent acceptor thread; a respawned worker re-dials the
//! whole mesh ([`TcpFabric::establish_rejoin`]) and each survivor installs
//! the fresh connection in the torn slot and marks the rejoiner's actors
//! back up. The rejoined process recovers its *protocol* state itself
//! (checkpoint + input-log replay from its durable store, then
//! re-subscription) — the fabric only restores connectivity.

use crate::engine::{Hub, ThreadRuntime};
use crate::scheduler::Envelope;
use crate::sync::{cv_wait, relock};
use crate::sync::{Arc, AtomicBool, AtomicU64, Condvar, Mutex, Ordering};
use borealis_dpc::{
    decode_frame, encode_frame, DpcActor, MetricsHub, NetMsg, RuntimeCtx, SystemLayout, WireMsg,
};
use borealis_sim::{FaultEvent, Input, StatsSnapshot};
use borealis_types::{NodeId, WireGauges};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// Per-connection wire counters (relaxed atomics; exact after shutdown).
#[derive(Default)]
struct ConnGauges {
    bytes_sent: AtomicU64,
    bytes_recv: AtomicU64,
    frames_sent: AtomicU64,
    frames_recv: AtomicU64,
    flushes: AtomicU64,
    grants_sent: AtomicU64,
    grants_recv: AtomicU64,
    purged: AtomicU64,
    resets: AtomicU64,
}

/// The coalescing write buffer of one connection: frames append here under
/// the lock and the writer thread swaps the whole thing out per flush.
struct WriteSide {
    buf: Vec<u8>,
    frames: u64,
    /// Orderly shutdown requested: flush what is queued (the last frame is
    /// the `Goodbye`), then shut the write half down.
    closing: bool,
}

/// One established connection to a peer process.
struct Conn {
    peer_proc: u32,
    stream: TcpStream,
    write: Mutex<WriteSide>,
    wake: Condvar,
    /// Cleared exactly once, by reset or clean close.
    alive: AtomicBool,
    /// The peer announced an orderly close (`Goodbye` frame) — a
    /// subsequent EOF is a clean teardown, not a crash.
    peer_goodbye: AtomicBool,
    g: ConnGauges,
}

impl Conn {
    fn new(peer_proc: u32, stream: TcpStream) -> Conn {
        Conn {
            peer_proc,
            stream,
            write: Mutex::new(WriteSide {
                buf: Vec::with_capacity(16 * 1024),
                frames: 0,
                closing: false,
            }),
            wake: Condvar::new(),
            alive: AtomicBool::new(true),
            peer_goodbye: AtomicBool::new(false),
            g: ConnGauges::default(),
        }
    }

    /// Appends one frame to the shared write buffer (the closure encodes
    /// in place — zero intermediate copies) and wakes the writer. Refused
    /// (`false`) once the connection is dead or closing: the frame is a
    /// counted drop at the caller.
    fn enqueue(&self, encode: impl FnOnce(&mut Vec<u8>)) -> bool {
        let mut ws = relock(&self.write);
        if !self.alive.load(Ordering::Acquire) || ws.closing {
            return false;
        }
        encode(&mut ws.buf);
        ws.frames += 1;
        drop(ws);
        self.wake.notify_one();
        true
    }

    /// Marks the connection dead and unblocks the writer. Returns `true`
    /// exactly once — the caller owning that edge runs the crash
    /// accounting.
    fn mark_dead(&self) -> bool {
        let was_alive = self.alive.swap(false, Ordering::AcqRel);
        let mut ws = relock(&self.write);
        ws.closing = true;
        drop(ws);
        self.wake.notify_all();
        was_alive
    }
}

/// The writer thread: parks until frames are queued, swaps the coalesced
/// buffer out under the lock, and drains it — every frame queued since the
/// last flush shares the syscall(s) of this one.
fn writer_loop(conn: Arc<Conn>) {
    let mut local: Vec<u8> = Vec::with_capacity(16 * 1024);
    loop {
        let (frames, closing) = {
            let mut ws = relock(&conn.write);
            while ws.buf.is_empty() && !ws.closing {
                ws = cv_wait(&conn.wake, ws);
            }
            std::mem::swap(&mut local, &mut ws.buf);
            (std::mem::take(&mut ws.frames), ws.closing)
        };
        if !local.is_empty() {
            let total = local.len() as u64;
            let mut off = 0usize;
            let ok = loop {
                if off >= local.len() {
                    break true;
                }
                match (&conn.stream).write(&local[off..]) {
                    Ok(0) => break false,
                    Ok(n) => off += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => break false,
                }
            };
            local.clear();
            if ok {
                conn.g.flushes.fetch_add(1, Ordering::Relaxed);
                conn.g.frames_sent.fetch_add(frames, Ordering::Relaxed);
                conn.g.bytes_sent.fetch_add(total, Ordering::Relaxed);
            } else {
                // The reader observes the same torn socket and runs the
                // reset accounting; the writer just stops.
                return;
            }
        }
        if closing {
            let _ = conn.stream.shutdown(Shutdown::Write);
            return;
        }
    }
}

/// Placeholder for an actor living in another process: it receives
/// nothing (sends to it travel the wire) and is stopped right after
/// deployment.
struct RemoteStub;

impl DpcActor<NetMsg> for RemoteStub {
    fn on_message(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>, _from: NodeId, _msg: NetMsg) {}
    fn on_timer(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>, _kind: u64) {}
}

/// The per-process socket mesh: one connection per peer process and the
/// process plan. (The *link* fabric — reachability, credits, loss
/// accounting — is `borealis_sim::Fabric`, shared with the worker pool
/// through the engine's hub; this type only moves frames.)
pub struct TcpFabric {
    my_proc: u32,
    /// `plan[actor index] = process id` — identical in every process.
    plan: Vec<u32>,
    /// Indexed by process id; `None` for `my_proc`. Slots are writable
    /// because a killed peer process may respawn and re-dial mid-run: the
    /// acceptor thread installs the fresh connection in place. A holder
    /// only clones the `Arc` out (or swaps it, on a rejoin).
    conns: Vec<Mutex<Option<Arc<Conn>>>>,
    /// Connections replaced by a rejoin, kept for their wire gauges.
    retired: Mutex<Vec<Arc<Conn>>>,
    /// The listener, parked here between `establish` and `start_io`
    /// (which moves it into the acceptor thread).
    listener: Mutex<Option<TcpListener>>,
    /// The running engine's mailboxes, link fabric and clock; set by
    /// `start_io`.
    hub: Mutex<Option<Arc<Hub>>>,
    /// Orderly shutdown: stops the acceptor and refuses late installs.
    closing: AtomicBool,
    io: Mutex<Vec<JoinHandle<()>>>,
}

impl TcpFabric {
    /// Establishes the full connection mesh for `my_proc` and returns the
    /// fabric. `addrs[p]` is process `p`'s listen address (an explicit
    /// `host:port` map every process receives up front — no port
    /// handshake); `plan` maps every actor index to its process.
    ///
    /// Dial direction is deterministic — the higher process id dials the
    /// lower and identifies itself with a `Hello` frame — so exactly one
    /// connection exists per process pair. Dialing retries with bounded
    /// exponential backoff for ~10 s (peers may still be binding);
    /// accepting waits up to 30 s for the `Hello`. No process returns
    /// until its whole mesh is up, which makes `establish` double as a
    /// start barrier for multi-process runs.
    pub fn establish(
        my_proc: u32,
        listener: TcpListener,
        addrs: &[String],
        plan: Vec<u32>,
    ) -> std::io::Result<Arc<TcpFabric>> {
        let procs = addrs.len() as u32;
        let mut conns: Vec<Option<Arc<Conn>>> = (0..procs).map(|_| None).collect();
        // Dial every lower peer, announcing who we are.
        for p in 0..my_proc {
            conns[p as usize] = Some(dial_peer(my_proc, p, &addrs[p as usize])?);
        }
        // Accept every higher peer; the Hello tells us which one dialed.
        let higher = procs.saturating_sub(my_proc + 1);
        for _ in 0..higher {
            let (stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
            let peer = read_hello(&stream)?;
            stream.set_read_timeout(None)?;
            if peer <= my_proc || peer >= procs || conns[peer as usize].is_some() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unexpected hello from process {peer}"),
                ));
            }
            conns[peer as usize] = Some(Arc::new(Conn::new(peer, stream)));
        }
        Ok(Self::assemble(my_proc, listener, plan, conns))
    }

    /// Establishes the mesh for a process **rejoining** a running system
    /// (a respawned worker): instead of the dial-lower/accept-higher
    /// split, the rejoiner dials *every* peer — each survivor's acceptor
    /// thread reads the `Hello`, installs the fresh connection in the
    /// torn slot, and marks the rejoiner's actors back up.
    pub fn establish_rejoin(
        my_proc: u32,
        listener: TcpListener,
        addrs: &[String],
        plan: Vec<u32>,
    ) -> std::io::Result<Arc<TcpFabric>> {
        let procs = addrs.len() as u32;
        let mut conns: Vec<Option<Arc<Conn>>> = (0..procs).map(|_| None).collect();
        for p in (0..procs).filter(|p| *p != my_proc) {
            conns[p as usize] = Some(dial_peer(my_proc, p, &addrs[p as usize])?);
        }
        Ok(Self::assemble(my_proc, listener, plan, conns))
    }

    fn assemble(
        my_proc: u32,
        listener: TcpListener,
        plan: Vec<u32>,
        conns: Vec<Option<Arc<Conn>>>,
    ) -> Arc<TcpFabric> {
        Arc::new(TcpFabric {
            my_proc,
            plan,
            conns: conns.into_iter().map(Mutex::new).collect(),
            retired: Mutex::new(Vec::new()),
            listener: Mutex::new(Some(listener)),
            hub: Mutex::new(None),
            closing: AtomicBool::new(false),
            io: Mutex::new(Vec::new()),
        })
    }

    /// True when the plan places `id` in process `proc` — false for an id
    /// outside the plan, so it may be asked about ids read off a socket.
    fn placed(&self, id: NodeId, proc: u32) -> bool {
        self.plan.get(id.index()) == Some(&proc)
    }

    /// True when `id` lives in another process (its sends travel the
    /// wire; its local task is an inert stub).
    pub fn is_remote(&self, id: NodeId) -> bool {
        !self.placed(id, self.my_proc)
    }

    /// Every actor the plan places in process `proc`.
    fn actors_of(&self, proc: u32) -> impl Iterator<Item = NodeId> + '_ {
        let ids = self.plan.iter().enumerate();
        ids.filter(move |(_, p)| **p == proc)
            .map(|(i, _)| NodeId(i as u32))
    }

    fn conn_to(&self, id: NodeId) -> Option<Arc<Conn>> {
        relock(&self.conns[self.plan[id.index()] as usize]).clone()
    }

    /// Encodes `msg` into the write buffer of `to`'s process connection.
    /// `false` means the connection is down: the caller counts the drop.
    pub(crate) fn send_net(&self, from: NodeId, to: NodeId, msg: NetMsg) -> bool {
        match self.conn_to(to) {
            Some(conn) => conn.enqueue(|buf| {
                encode_frame(buf, from, to, &WireMsg::Net(msg));
            }),
            None => false,
        }
    }

    /// Returns one consumed delivery's credit to the remote sender: a
    /// `CreditGrant` frame whose header names the data link `from → to`
    /// (`from` = the remote sender whose ledger holds the window).
    pub(crate) fn send_grant(&self, from: NodeId, to: NodeId) {
        if let Some(conn) = self.conn_to(from) {
            if conn.enqueue(|buf| {
                encode_frame(buf, from, to, &WireMsg::CreditGrant);
            }) {
                conn.g.grants_sent.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Crash accounting for a torn connection: every actor of the dead
    /// peer process goes `NodeDown` in the local fabric (queued
    /// credit-stalled sends purge as counted delivery drops; later sends
    /// become send drops), and every live local actor is notified so it
    /// drops the subscription state the dead process held for it. Without
    /// the notification a peer that restarts *faster* than the keep-alive
    /// staleness window leaves its consumers subscribed to a node that no
    /// longer knows them — a dangling subscription that silences the
    /// stream forever.
    fn reset_conn(&self, conn: &Conn, hub: &Hub) {
        if !conn.mark_dead() {
            return;
        }
        conn.g.resets.fetch_add(1, Ordering::Relaxed);
        let now = hub.clock.now();
        let dead: Vec<NodeId> = self.actors_of(conn.peer_proc).collect();
        let live: Vec<NodeId> = {
            let mut fabric = hub.fabric();
            let purged_before = fabric.stats().flow.purged;
            for &d in &dead {
                fabric.apply(&FaultEvent::NodeDown(d), now);
            }
            let purged = fabric.stats().flow.purged - purged_before;
            conn.g.purged.fetch_add(purged, Ordering::Relaxed);
            self.actors_of(self.my_proc)
                .filter(|l| fabric.node_up(*l))
                .collect()
        };
        for local in live {
            for &d in &dead {
                let heard = Input::Fault(FaultEvent::NodeDown(d));
                hub.sched.push(local, Envelope::Input(heard), None);
            }
        }
    }

    /// Spawns the per-connection reader and writer threads plus the
    /// persistent acceptor (which admits rejoining peers mid-run). Called
    /// by the engine once the scheduler exists; incoming frames push
    /// straight into the destination task's mailbox.
    pub(crate) fn start_io(self: &Arc<Self>, hub: Arc<Hub>) {
        *relock(&self.hub) = Some(Arc::clone(&hub));
        for slot in &self.conns {
            let conn = relock(slot).clone();
            if let Some(conn) = conn {
                self.spawn_conn_io(&conn, &hub);
            }
        }
        if let Some(listener) = relock(&self.listener).take() {
            let mesh = Arc::clone(self);
            relock(&self.io).push(
                std::thread::Builder::new()
                    .name("tcp-acceptor".into())
                    .spawn(move || acceptor_loop(mesh, listener))
                    .expect("spawn tcp acceptor"),
            );
        }
    }

    /// Spawns the writer and reader threads of one connection.
    fn spawn_conn_io(self: &Arc<Self>, conn: &Arc<Conn>, hub: &Arc<Hub>) {
        let mut io = relock(&self.io);
        let w = Arc::clone(conn);
        io.push(
            std::thread::Builder::new()
                .name(format!("tcp-writer-{}", conn.peer_proc))
                .spawn(move || writer_loop(w))
                .expect("spawn tcp writer"),
        );
        let mesh = Arc::clone(self);
        let conn = Arc::clone(conn);
        let hub = Arc::clone(hub);
        io.push(
            std::thread::Builder::new()
                .name(format!("tcp-reader-{}", conn.peer_proc))
                .spawn(move || reader_loop(mesh, conn, hub))
                .expect("spawn tcp reader"),
        );
    }

    /// Installs a rejoining peer's fresh connection: retires whatever
    /// occupied the slot (running its crash accounting if the reader had
    /// not already), marks the peer's actors back up in the link fabric,
    /// and spawns the new connection's I/O threads. The peer's *protocol*
    /// recovery — reloading its checkpoint, replaying its input log,
    /// re-subscribing — happens in the rejoined process itself; survivors
    /// only need delivery re-enabled, after which heartbeats resume.
    fn install_conn(self: &Arc<Self>, peer: u32, stream: TcpStream) {
        let Some(hub) = relock(&self.hub).clone() else {
            return;
        };
        if peer == self.my_proc
            || peer as usize >= self.conns.len()
            || self.closing.load(Ordering::Acquire)
        {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        let conn = Arc::new(Conn::new(peer, stream));
        let old = relock(&self.conns[peer as usize]).replace(Arc::clone(&conn));
        if let Some(old) = old {
            // Usually already dead (the reader saw the torn socket when
            // the peer was killed); if the kill and the rejoin raced, the
            // crash accounting runs now, before the NodeUp below.
            self.reset_conn(&old, &hub);
            relock(&self.retired).push(old);
        }
        let now = hub.clock.now();
        for id in self.actors_of(peer) {
            hub.fabric().apply(&FaultEvent::NodeUp(id), now);
        }
        self.spawn_conn_io(&conn, &hub);
    }

    /// Aggregated wire gauges across every connection, including retired
    /// ones (a rejoin replaces the `Conn` but its traffic still counts).
    pub fn wire_gauges(&self) -> WireGauges {
        let mut w = WireGauges::default();
        let live: Vec<Arc<Conn>> = self
            .conns
            .iter()
            .filter_map(|slot| relock(slot).clone())
            .collect();
        let retired: Vec<Arc<Conn>> = relock(&self.retired).clone();
        for conn in live.iter().chain(retired.iter()) {
            if conn.alive.load(Ordering::Acquire) {
                w.conns += 1;
            }
            let g = &conn.g;
            w.bytes_sent += g.bytes_sent.load(Ordering::Relaxed);
            w.bytes_recv += g.bytes_recv.load(Ordering::Relaxed);
            w.frames_sent += g.frames_sent.load(Ordering::Relaxed);
            w.frames_recv += g.frames_recv.load(Ordering::Relaxed);
            w.flushes += g.flushes.load(Ordering::Relaxed);
            w.grants_sent += g.grants_sent.load(Ordering::Relaxed);
            w.grants_recv += g.grants_recv.load(Ordering::Relaxed);
            w.purged_frames += g.purged.load(Ordering::Relaxed);
            w.resets += g.resets.load(Ordering::Relaxed);
        }
        w
    }

    /// Orderly teardown: stops the acceptor, sends a `Goodbye` on every
    /// live connection, flushes, shuts the write halves down, and joins
    /// the I/O threads (each reader exits on its peer's `Goodbye` + EOF,
    /// or was already gone). Idempotent.
    pub fn shutdown(&self) {
        self.closing.store(true, Ordering::Release);
        for slot in &self.conns {
            let Some(conn) = relock(slot).clone() else {
                continue;
            };
            let mut ws = relock(&conn.write);
            if conn.alive.load(Ordering::Acquire) && !ws.closing {
                encode_frame(
                    &mut ws.buf,
                    NodeId(self.my_proc),
                    NodeId(conn.peer_proc),
                    &WireMsg::Goodbye,
                );
                ws.frames += 1;
                ws.closing = true;
            }
            drop(ws);
            conn.wake.notify_all();
        }
        let handles: Vec<JoinHandle<()>> = relock(&self.io).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Test hook: tears the connection to `proc` down without a `Goodbye`
    /// — the peer observes a crash, not a clean close.
    #[cfg(test)]
    pub(crate) fn kill(&self, proc: u32) {
        if let Some(conn) = relock(&self.conns[proc as usize]).clone() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }
}

/// Dials one peer and announces ourselves with a `Hello` frame.
fn dial_peer(my_proc: u32, peer: u32, addr: &str) -> std::io::Result<Arc<Conn>> {
    let stream = dial_retry(addr)?;
    stream.set_nodelay(true)?;
    let mut hello = Vec::with_capacity(16);
    encode_frame(
        &mut hello,
        NodeId(my_proc),
        NodeId(peer),
        &WireMsg::Hello { proc: my_proc },
    );
    (&stream).write_all(&hello)?;
    Ok(Arc::new(Conn::new(peer, stream)))
}

/// Dials `addr`, retrying while the peer's listener comes up (~10 s
/// deadline) with bounded exponential backoff: 10 ms doubling to a 500 ms
/// cap, so a slow peer costs few connection attempts but a fast one is
/// picked up within milliseconds.
fn dial_retry(addr: &str) -> std::io::Result<TcpStream> {
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    let mut backoff = std::time::Duration::from_millis(10);
    let cap = std::time::Duration::from_millis(500);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => {
                std::thread::sleep(backoff.min(deadline.saturating_duration_since(Instant::now())));
                backoff = (backoff * 2).min(cap);
            }
        }
    }
}

/// The acceptor thread: admits peers that (re)dial after startup — a
/// respawned worker process rejoining the mesh. Polls a non-blocking
/// listener so shutdown can stop it promptly.
fn acceptor_loop(fabric: Arc<TcpFabric>, listener: TcpListener) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !fabric.closing.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                // The Hello read is blocking (with a deadline) — the
                // accepted socket must not inherit the listener's mode.
                if stream.set_nonblocking(false).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(30)));
                let Ok(peer) = read_hello(&stream) else {
                    continue;
                };
                let _ = stream.set_read_timeout(None);
                fabric.install_conn(peer, stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Length of a `Hello` frame: the `len`, `from`, `to` and `kind` header,
/// then `proc: u32`.
const HELLO_LEN: usize = 17;

/// Reads exactly one handshake `Hello` frame off a freshly accepted
/// stream and returns the dialer's process id. It never reads past the
/// frame — whatever the dialer sends behind it stays in the socket for the
/// reader thread — and refuses at once any 17 bytes that are not a whole
/// `Hello`: another kind, or a header declaring a longer frame.
fn read_hello(mut stream: &TcpStream) -> std::io::Result<u32> {
    let mut buf = [0u8; HELLO_LEN];
    stream.read_exact(&mut buf)?;
    match decode_frame(&buf) {
        Ok(Some((_, _, WireMsg::Hello { proc }, _))) => Ok(proc),
        _ => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "handshake must be exactly one Hello frame",
        )),
    }
}

/// The reader thread: grows a decode buffer from large reads, dispatches
/// every complete frame, and translates the connection's end into either
/// a clean close or a crash.
fn reader_loop(mesh: Arc<TcpFabric>, conn: Arc<Conn>, hub: Arc<Hub>) {
    let mut buf: Vec<u8> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let (ours, theirs) = (mesh.my_proc, conn.peer_proc);
    loop {
        // Drain every complete frame before reading more.
        let mut consumed = 0usize;
        loop {
            match decode_frame(&buf[consumed..]) {
                Ok(Some((from, to, msg, used))) => {
                    consumed += used;
                    conn.g.frames_recv.fetch_add(1, Ordering::Relaxed);
                    match msg {
                        WireMsg::Net(m) if mesh.placed(from, theirs) && mesh.placed(to, ours) => {
                            // Straight into the destination mailbox: the
                            // fabric's delivery-time checks run when the
                            // worker processes it, the same as an
                            // in-process send.
                            let message = Input::Message { from, msg: m };
                            hub.sched.push(to, Envelope::Input(message), None);
                        }
                        WireMsg::CreditGrant
                            if mesh.placed(from, ours) && mesh.placed(to, theirs) =>
                        {
                            conn.g.grants_recv.fetch_add(1, Ordering::Relaxed);
                            // The grant names the data link from → to; our
                            // ledger holds its window. Release the next
                            // queued message onto the wire.
                            let released = hub.fabric().consumed(from, to, hub.clock.now());
                            if let Some(m) = released {
                                if !mesh.send_net(from, to, m) {
                                    hub.fabric().count_lost();
                                }
                            }
                        }
                        WireMsg::Goodbye => {
                            conn.peer_goodbye.store(true, Ordering::Release);
                        }
                        // A `Hello` is only valid during the handshake, and
                        // a link the plan does not run between the two
                        // processes is not ours to act on: either way the
                        // peer is broken — crash semantics.
                        WireMsg::Net(_) | WireMsg::CreditGrant | WireMsg::Hello { .. } => {
                            mesh.reset_conn(&conn, &hub);
                            return;
                        }
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // Corrupt frame: indistinguishable from a torn
                    // connection — crash semantics.
                    mesh.reset_conn(&conn, &hub);
                    return;
                }
            }
        }
        if consumed > 0 {
            buf.drain(..consumed);
        }
        match (&conn.stream).read(&mut scratch) {
            Ok(0) => {
                if conn.peer_goodbye.load(Ordering::Acquire) {
                    conn.mark_dead();
                } else {
                    mesh.reset_conn(&conn, &hub);
                }
                return;
            }
            Ok(n) => {
                conn.g.bytes_recv.fetch_add(n as u64, Ordering::Relaxed);
                buf.extend_from_slice(&scratch[..n]);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                mesh.reset_conn(&conn, &hub);
                return;
            }
        }
    }
}

/// Maps every actor of `layout` to a process: sources and the client stay
/// in process 0 (the launcher, which reads the metrics), and the replicas
/// of each physical fragment spread round-robin over processes `1..procs`
/// such that **same-fragment replicas land in different processes** —
/// killing one process then behaves like the paper's independent node
/// failures. Every process computes the identical plan from the shared
/// layout, so no coordination is needed.
pub fn plan_processes(layout: &SystemLayout, procs: u32) -> Vec<u32> {
    let mut plan = vec![0u32; layout.actors.len()];
    if procs <= 1 {
        return plan;
    }
    for (fi, replicas) in layout.fragment_replicas.iter().enumerate() {
        for (r, id) in replicas.iter().enumerate() {
            plan[id.index()] = 1 + ((fi + r) as u32 % (procs - 1));
        }
    }
    plan
}

/// A deployment running under the thread engine in one process of a
/// multi-process system — the socket sibling of
/// [`RunningThreads`](crate::RunningThreads).
pub struct RunningTcp {
    /// The engine driving this process's live actors.
    pub runtime: ThreadRuntime,
    /// The socket fabric connecting this process to its peers.
    pub fabric: Arc<TcpFabric>,
    /// Metrics collected by the client proxy (populated only in the
    /// process hosting the client).
    pub metrics: MetricsHub,
}

impl RunningTcp {
    /// Lets the system run for `wall` (blocks the caller; the actors run on
    /// the worker pool).
    pub fn run_for(&self, wall: std::time::Duration) {
        self.runtime.run_for(wall);
    }

    /// Aggregated wire gauges across this process's connections.
    pub fn wire_gauges(&self) -> WireGauges {
        self.fabric.wire_gauges()
    }

    /// Message-loss statistics so far, including the wire gauges.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            wire: self.fabric.wire_gauges(),
            ..self.runtime.stats()
        }
    }

    /// Stops the local engine, then tears the socket mesh down cleanly
    /// (`Goodbye` + flush on every connection). Returns final statistics
    /// with the wire gauges filled in.
    pub fn shutdown(self) -> StatsSnapshot {
        let snap = self.runtime.shutdown();
        self.fabric.shutdown();
        StatsSnapshot {
            wire: self.fabric.wire_gauges(),
            ..snap
        }
    }
}

/// Launches this process's share of a resolved [`SystemLayout`] over an
/// established [`TcpFabric`]: actors planned here run for real, actors
/// planned elsewhere become inert stubs that are stopped immediately (a
/// send to one travels the wire instead). The scripted fault script
/// replays in every process, keeping the fabrics' decisions consistent.
pub fn deploy_tcp(layout: SystemLayout, fabric: Arc<TcpFabric>) -> RunningTcp {
    assert_eq!(
        fabric.plan.len(),
        layout.actors.len(),
        "process plan must cover every actor"
    );
    let metrics = layout.metrics.clone();
    let mut remote = Vec::new();
    let actors: Vec<Box<dyn DpcActor<NetMsg>>> = layout
        .actors
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let id = NodeId(i as u32);
            if fabric.is_remote(id) {
                remote.push(id);
                Box::new(RemoteStub) as Box<dyn DpcActor<NetMsg>>
            } else {
                spec.into_actor(&metrics)
            }
        })
        .collect();
    let workers = layout
        .workers
        .unwrap_or_else(ThreadRuntime::default_workers);
    let runtime = ThreadRuntime::spawn(
        actors,
        layout.script,
        layout.seed,
        layout.partitions,
        layout.flow_policy,
        workers,
        Some(Arc::clone(&fabric)),
    );
    // Stubs process their (no-op) on_start and stop: nothing remote ever
    // runs here, and shutdown's all-stopped rendezvous already counts
    // them.
    for id in &remote {
        runtime.stop_task(*id);
    }
    RunningTcp {
        runtime,
        fabric,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::AtomicUsize;
    use borealis_types::{CreditPolicy, Duration, StreamId, Time, Tuple, TupleBatch, TupleId};
    use std::collections::HashSet;

    fn data_msg() -> NetMsg {
        NetMsg::Data {
            stream: StreamId(0),
            tuples: TupleBatch::single(Tuple::boundary(TupleId::NONE, Time::ZERO)).into(),
        }
    }

    /// Two fabrics over loopback in one OS process. Sequential establish
    /// works because the dialer's connect completes against the
    /// listener's backlog before accept is called.
    fn fabric_pair(plan: Vec<u32>) -> (Arc<TcpFabric>, Arc<TcpFabric>) {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![
            l0.local_addr().unwrap().to_string(),
            l1.local_addr().unwrap().to_string(),
        ];
        let f1 = TcpFabric::establish(1, l1, &addrs, plan.clone()).unwrap();
        let f0 = TcpFabric::establish(0, l0, &addrs, plan).unwrap();
        (f0, f1)
    }

    /// Sends a burst of data messages to a remote consumer on start.
    struct Burst {
        to: NodeId,
        n: usize,
    }
    impl DpcActor<NetMsg> for Burst {
        fn on_start(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>) {
            for _ in 0..self.n {
                ctx.send(self.to, data_msg());
            }
        }
        fn on_message(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>, _from: NodeId, _msg: NetMsg) {}
        fn on_timer(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>, _kind: u64) {}
    }

    /// Counts data deliveries (consumption is immediate: credit returns
    /// right away, via a wire grant when the sender is remote).
    struct Counter {
        seen: Arc<AtomicUsize>,
    }
    impl DpcActor<NetMsg> for Counter {
        fn on_message(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>, _from: NodeId, _msg: NetMsg) {
            self.seen.fetch_add(1, Ordering::SeqCst);
        }
        fn on_timer(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>, _kind: u64) {}
    }

    fn wait_until(pred: impl Fn() -> bool, ms: u64) -> bool {
        let deadline = Instant::now() + std::time::Duration::from_millis(ms);
        while Instant::now() < deadline {
            if pred() {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        pred()
    }

    fn spawn_proc(
        fabric: &Arc<TcpFabric>,
        actors: Vec<Box<dyn DpcActor<NetMsg>>>,
        policy: CreditPolicy,
    ) -> ThreadRuntime {
        let rt = ThreadRuntime::spawn(
            actors,
            Vec::new(),
            1,
            Vec::new(),
            policy,
            2,
            Some(Arc::clone(fabric)),
        );
        // Stop the stubs, as deploy_tcp does.
        for i in 0..fabric.plan.len() {
            let id = NodeId(i as u32);
            if fabric.is_remote(id) {
                rt.stop_task(id);
            }
        }
        rt
    }

    #[test]
    fn window_one_credits_flow_across_the_wire() {
        // Actor 0 (proc 0) bursts 4 data messages at actor 1 (proc 1)
        // under Window(1): three queue in proc 0's ledger and release one
        // by one as CreditGrant frames come back.
        let (f0, f1) = fabric_pair(vec![0, 1]);
        let seen = Arc::new(AtomicUsize::new(0));
        let rt0 = spawn_proc(
            &f0,
            vec![
                Box::new(Burst {
                    to: NodeId(1),
                    n: 4,
                }),
                Box::new(RemoteStub),
            ],
            CreditPolicy::Window(1),
        );
        let rt1 = spawn_proc(
            &f1,
            vec![
                Box::new(RemoteStub),
                Box::new(Counter {
                    seen: Arc::clone(&seen),
                }),
            ],
            CreditPolicy::Window(1),
        );
        assert!(
            wait_until(|| seen.load(Ordering::SeqCst) == 4, 5000),
            "all four data messages must arrive; got {}",
            seen.load(Ordering::SeqCst)
        );
        let w1 = f1.wire_gauges();
        assert!(
            w1.grants_sent >= 3,
            "wire grants released the queue: {w1:?}"
        );
        // The sender's ledger is the wire window: drained, it stalls no more.
        let flow0 = rt0.fabric().stats().flow;
        assert_eq!(flow0.queued_now, 0, "{flow0:?}");
        let stats0 = rt0.shutdown();
        f0.shutdown();
        rt1.shutdown();
        f1.shutdown();
        assert_eq!(stats0.total_drops(), 0, "clean run drops nothing");
        let w0 = f0.wire_gauges();
        assert!(w0.grants_recv >= 3, "sender saw the grants: {w0:?}");
        assert!(w0.frames_per_flush() >= 1.0);
    }

    /// Every id in a frame header is checked against the plan before the
    /// frame is dispatched: a `Data` frame must come from the peer's
    /// process and go to ours, a `CreditGrant` the reverse. Each hostile
    /// header below resets the connection like a corrupt frame, and no
    /// actor sees the frame.
    #[test]
    fn frames_naming_links_outside_the_plan_reset_the_connection() {
        let (data, grant) = (|| WireMsg::Net(data_msg()), WireMsg::CreditGrant);
        let hostile = [
            ("sender outside the plan", 7, 1, data()),
            ("sender in a third process", 2, 1, data()),
            ("sender in the receiver's process", 1, 1, data()),
            ("receiver outside the plan", 0, 9, data()),
            ("grant for a link the peer sends on", 0, 1, grant),
        ];
        for (case, from, to, msg) in hostile {
            // Actor 2 is placed in a process that never joins the mesh.
            let (f0, f1) = fabric_pair(vec![0, 1, 2]);
            let seen = Arc::new(AtomicUsize::new(0));
            let counter = Box::new(Counter {
                seen: Arc::clone(&seen),
            });
            let actors = |one: Box<dyn DpcActor<NetMsg>>| {
                vec![Box::new(RemoteStub) as _, one, Box::new(RemoteStub) as _]
            };
            let rt0 = spawn_proc(&f0, actors(Box::new(RemoteStub)), CreditPolicy::Window(1));
            let rt1 = spawn_proc(&f1, actors(counter), CreditPolicy::Window(1));
            let conn = relock(&f0.conns[1]).clone().expect("mesh is up");
            assert!(conn.enqueue(|buf| _ = encode_frame(buf, NodeId(from), NodeId(to), &msg)));
            let reset = wait_until(|| f1.wire_gauges().resets > 0, 3000);
            rt1.shutdown(); // panics naming any actor that panicked
            assert!(reset, "{case}: the receiver resets the connection");
            assert_eq!(seen.load(Ordering::SeqCst), 0, "{case}: seen by an actor");
            rt0.shutdown();
            f0.shutdown();
            f1.shutdown();
        }
    }

    #[test]
    fn torn_connection_is_a_crash_with_counted_drops() {
        let (f0, f1) = fabric_pair(vec![0, 1]);
        let seen = Arc::new(AtomicUsize::new(0));
        let rt0 = spawn_proc(
            &f0,
            vec![
                Box::new(Burst {
                    to: NodeId(1),
                    n: 2,
                }),
                Box::new(RemoteStub),
            ],
            CreditPolicy::Window(1),
        );
        let rt1 = spawn_proc(
            &f1,
            vec![
                Box::new(RemoteStub),
                Box::new(Counter {
                    seen: Arc::clone(&seen),
                }),
            ],
            CreditPolicy::Window(1),
        );
        assert!(wait_until(|| seen.load(Ordering::SeqCst) >= 1, 5000));
        // Tear the socket down with no Goodbye: both sides must see a
        // reset, mark the peer's actors down, and count later sends as
        // drops.
        f0.kill(1);
        assert!(
            wait_until(
                || f0.wire_gauges().resets + f1.wire_gauges().resets >= 2,
                5000
            ),
            "both sides observe the reset: {:?} / {:?}",
            f0.wire_gauges(),
            f1.wire_gauges()
        );
        assert!(!rt0.fabric().node_up(NodeId(1)), "peer actor marked down");
        assert!(!rt1.fabric().node_up(NodeId(0)), "peer actor marked down");
        rt0.shutdown();
        f0.shutdown();
        rt1.shutdown();
        f1.shutdown();
    }

    #[test]
    fn respawned_peer_rejoins_and_delivers_again() {
        // Actor 0 lives in proc 1 (the sender), actor 1 in proc 0 (the
        // counter). Proc 1 dies hard (torn socket), a dialer that is not a
        // peer holds proc 0's acceptor as long as it can, then a fresh
        // fabric rejoins through that acceptor — the slot is reinstalled,
        // the actor marked back up, and deliveries resume.
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![
            l0.local_addr().unwrap().to_string(),
            l1.local_addr().unwrap().to_string(),
        ];
        let plan = vec![1u32, 0u32];
        let f1 = TcpFabric::establish(1, l1, &addrs, plan.clone()).unwrap();
        let f0 = TcpFabric::establish(0, l0, &addrs, plan.clone()).unwrap();
        let seen = Arc::new(AtomicUsize::new(0));
        let rt0 = spawn_proc(
            &f0,
            vec![
                Box::new(RemoteStub),
                Box::new(Counter {
                    seen: Arc::clone(&seen),
                }),
            ],
            CreditPolicy::Window(1),
        );
        let rt1 = spawn_proc(
            &f1,
            vec![
                Box::new(Burst {
                    to: NodeId(1),
                    n: 2,
                }),
                Box::new(RemoteStub),
            ],
            CreditPolicy::Window(1),
        );
        assert!(wait_until(|| seen.load(Ordering::SeqCst) == 2, 5000));
        // Kill proc 1 the hard way: no Goodbye, proc 0 sees a crash.
        f1.kill(0);
        assert!(
            wait_until(|| !rt0.fabric().node_up(NodeId(0)), 5000),
            "torn socket marks the peer's actor down"
        );
        rt1.shutdown();
        f1.shutdown();
        // The handshake reads one `Hello`'s 17 bytes and no more: the first
        // 17 bytes of a 1 MiB `Data` frame, then silence, are refused at
        // once rather than read until the acceptor's 30 s timeout.
        let mut silent = TcpStream::connect(&addrs[0]).unwrap();
        let mut head = Vec::new();
        for word in [1u32 << 20, 0, 1] {
            head.extend(word.to_le_bytes()); // len, from, to
        }
        head.push(0x00); // kind: `Data`
        head.extend(0u32.to_le_bytes()); // its stream id
        assert_eq!(head.len(), HELLO_LEN);
        silent.write_all(&head).unwrap();
        let two_secs = std::time::Duration::from_secs(2);
        silent.set_read_timeout(Some(two_secs)).unwrap();
        let closed = match silent.read(&mut [0u8; 1]) {
            Ok(n) => n == 0,
            Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
        };
        assert!(closed, "the acceptor closes a non-Hello dialer at once");
        // Respawn proc 1 (new listener — a real respawn rebinds its
        // configured address; a fresh port keeps the test race-free).
        let l1b = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs2 = vec![addrs[0].clone(), l1b.local_addr().unwrap().to_string()];
        let f1b = TcpFabric::establish_rejoin(1, l1b, &addrs2, plan).unwrap();
        let rt1b = spawn_proc(
            &f1b,
            vec![
                Box::new(Burst {
                    to: NodeId(1),
                    n: 3,
                }),
                Box::new(RemoteStub),
            ],
            CreditPolicy::Window(1),
        );
        assert!(
            wait_until(|| rt0.fabric().node_up(NodeId(0)), 5000),
            "rejoin marks the peer's actors back up"
        );
        assert!(
            wait_until(|| seen.load(Ordering::SeqCst) == 5, 5000),
            "deliveries resume after the rejoin: {}",
            seen.load(Ordering::SeqCst)
        );
        let w0 = f0.wire_gauges();
        assert!(w0.resets >= 1, "the kill counted as a reset: {w0:?}");
        rt1b.shutdown();
        f1b.shutdown();
        rt0.shutdown();
        f0.shutdown();
    }

    #[test]
    fn plan_spreads_replicas_across_processes() {
        // Hand-build the minimal layout shape the planner reads.
        use borealis_diagram::{plan_deployment, DeploymentSpec, DpcConfig, QueryBuilder};
        use borealis_dpc::SystemBuilder;
        let mut q = QueryBuilder::new();
        let s1 = q.source("s1");
        let s2 = q.source("s2");
        let u = q.union("u", &[s1, s2]);
        q.output(u);
        let d = q.build().unwrap();
        let p = plan_deployment(&d, &DeploymentSpec::single(2), &DpcConfig::default()).unwrap();
        let layout = SystemBuilder::new(1, Duration::from_millis(1))
            .source(borealis_dpc::SourceConfig::seq(s1.id(), 10.0))
            .source(borealis_dpc::SourceConfig::seq(s2.id(), 10.0))
            .plan(p)
            .client_streams(vec![u.id()])
            .layout();
        let plan = plan_processes(&layout, 3);
        assert_eq!(plan.len(), layout.actors.len());
        // Sources and client stay in process 0.
        for (_, id) in &layout.source_ids {
            assert_eq!(plan[id.index()], 0);
        }
        assert_eq!(plan[layout.client.unwrap().index()], 0);
        // Same-fragment replicas land in different processes.
        for replicas in &layout.fragment_replicas {
            let procs: HashSet<u32> = replicas.iter().map(|id| plan[id.index()]).collect();
            assert_eq!(procs.len(), replicas.len().min(2));
            assert!(!procs.contains(&0), "replicas avoid the client process");
        }
        let single = plan_processes(&layout, 1);
        assert!(single.iter().all(|p| *p == 0));
    }
}
