//! The socket transport: one `SystemLayout` deployed across OS processes,
//! with the credit protocol carried on a zero-copy binary wire.
//!
//! Each process runs the same worker-pool engine ([`crate::engine`]) over
//! the *same* actor id space; a process plan (`actor index → process`)
//! decides which actors are live locally and which are inert stubs. Sends
//! to remote actors are encoded **straight from the `Arc`'d batch into the
//! destination connection's write buffer** (`borealis_dpc::encode_frame`
//! appends in place — no intermediate message allocation), where they
//! coalesce with every other frame queued since the last flush.
//!
//! **Senders flush their own frames.** Appending wakes nobody. Whoever
//! filled a buffer drains it: a pool worker after each activation that
//! queued a frame and before it parks (which covers grants it returned for
//! the pool wheel), a connection's reader after each read (which covers the
//! messages a grant released), and the teardown. One caller at a time holds
//! the flush role; one that finds it taken leaves its bytes to the holder
//! (the `outbox` module, model-checked), so heartbeats, acks and grants
//! share `write` calls (see [`WireGauges::frames_per_flush`]). Every socket
//! carries a short write timeout: a peer that stops reading costs a flusher
//! that timeout, and the unwritten tail waits at the head of the buffer for
//! the next flush — in practice the reader's, once the peer's grants show
//! it consuming again. A process runs its pool's workers, one acceptor and
//! one reader per peer: a durable worker of a three-process mesh, with its
//! two pool workers and the durability flusher, runs 7 OS threads.
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
//! The receiver **holds credits in half-window batches**: a consumed
//! delivery's credit is counted on the connection it would travel on, and
//! only when its link holds `hold = max(1, window / 2)` of them do they go
//! back, one `CreditGrant` frame each, in one write — so a lone grant wakes
//! no reader in the sending process. Any other frame queued on that
//! connection takes every credit held there with it; consumers send acks
//! and keep-alives to every candidate each keep-alive period, so no credit
//! waits longer than one. This cannot deadlock: a sender waits only when
//! its ledger shows `window` deliveries unconsumed; fewer than `hold ≤
//! window / 2` of them can be held, so at least one is still to be
//! consumed, and consuming them all reaches the threshold. `Window(1)`
//! returns every credit at once, as an unbatched grant would. Held counts
//! die with their connection: a rejoined peer, whose links restart with a
//! full window, never receives credit for an earlier incarnation's sends.
//!
//! **Local replicas first.** `deploy_tcp` orders every hosted consumer's
//! upstream candidates so that those the plan places in its own process
//! come first. A consumer subscribes to its first candidate and fails over
//! in candidate order, so each replica chain runs inside one process while
//! it is up, and a process crash costs whole chains.
//!
//! **Connection reset = crash.** A torn connection (read error, EOF
//! without a `Goodbye` frame, a corrupt frame, or a header whose actor ids
//! the plan does not place on this connection's two ends) is a process
//! crash of the dead peer: one `FaultEvent::ProcessDown` of its actors in
//! the local fabric — the same `Fabric::apply`, and the same rule for who
//! hears it (every live actor), that a scripted process crash meets on the
//! pool wheel or in the simulator's queue: queued
//! credit-stalled sends purge as counted delivery drops and later sends
//! count as send drops, so the chaos semantics of the transports are
//! identical. The scripted fault script itself replays in *every* process
//! against its own fabric, which keeps reachability decisions consistent
//! without any cross-process coordination — except a scripted process
//! crash, which the launcher carries out instead (`FaultEvent::process`).
//!
//! **One way into the mesh.** From `establish` on, one acceptor thread
//! hands each accepted socket to a short-lived thread that reads its one
//! `Hello`, so a silent or stray dialer costs only itself. Every
//! connection, dialed or accepted, at start or on a rejoin, enters its slot
//! through `install_conn`. A respawned worker re-dials the whole mesh
//! ([`TcpFabric::establish_rejoin`]) and recovers its *protocol* state
//! itself (checkpoint + input-log replay, then re-subscription) — the
//! fabric only restores connectivity.

use crate::engine::{Hub, ThreadRuntime};
use crate::outbox::{Drained, Outbox, Sink};
use crate::scheduler::Envelope;
use crate::sync::{cv_wait, relock};
use crate::sync::{Arc, AtomicBool, AtomicU64, Condvar, Mutex, MutexGuard, Ordering};
use borealis_dpc::{
    decode_frame, encode_frame, ActorSpec, DpcActor, MetricsHub, NetMsg, RuntimeCtx, SystemLayout,
    WireMsg,
};
use borealis_sim::{FaultEvent, Input, StatsSnapshot};
use borealis_types::{NodeId, WireGauges};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// The mesh's one set of wire counters (relaxed atomics; exact after
/// shutdown): a connection a rejoin replaces leaves its traffic counted.
#[derive(Default)]
struct Counters {
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

/// How long one `write` may wait on a peer that is not reading before the
/// flush gives up and leaves the rest queued (module docs).
const WRITE_STALL: std::time::Duration = std::time::Duration::from_millis(5);

/// Bytes a reader makes room for behind the undecoded ones before it reads.
const READ_CHUNK: usize = 64 * 1024;

impl Sink for TcpStream {
    fn write(&self, bytes: &[u8]) -> std::io::Result<usize> {
        Write::write(&mut &*self, bytes)
    }

    fn close(&self) {
        let _ = self.shutdown(Shutdown::Write);
    }
}

/// One established connection to a peer process.
struct Conn {
    peer_proc: u32,
    /// The socket, behind its write buffer and flush role.
    out: Outbox<TcpStream>,
    /// Cleared exactly once, by reset or clean close.
    alive: AtomicBool,
    /// The peer announced an orderly close (`Goodbye` frame) — a
    /// subsequent EOF is a clean teardown, not a crash.
    peer_goodbye: AtomicBool,
    /// Credits consumed here and not yet returned, `(from, to, count)` per
    /// data link the peer sends on (module docs). Locked before `out`'s
    /// buffer, never after it.
    held: Mutex<Vec<(NodeId, NodeId, u64)>>,
}

impl Conn {
    fn new(peer_proc: u32, stream: TcpStream) -> Conn {
        Conn {
            peer_proc,
            out: Outbox::new(stream),
            alive: AtomicBool::new(true),
            peer_goodbye: AtomicBool::new(false),
            held: Mutex::new(Vec::new()),
        }
    }

    fn stream(&self) -> &TcpStream {
        self.out.sink()
    }

    /// Appends `frames` frames (the closure encodes them in place — zero
    /// intermediate copies) behind a `CreditGrant` for every credit
    /// `held` holds, which it zeroes; a flush puts them on the wire.
    /// Returns the credits sent, or `None` once the connection is dead or
    /// closing: the frame is a counted drop at the caller.
    fn enqueue(
        &self,
        mut held: MutexGuard<'_, Vec<(NodeId, NodeId, u64)>>,
        frames: u64,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Option<u64> {
        if !self.alive.load(Ordering::Acquire) {
            return None;
        }
        let credits = held.iter().map(|(_, _, n)| n).sum::<u64>();
        let queued = self.out.append(credits + frames, |buf| {
            for (from, to, n) in held.iter_mut() {
                for _ in 0..std::mem::take(n) {
                    encode_frame(buf, *from, *to, &WireMsg::CreditGrant);
                }
            }
            encode(buf);
        });
        queued.then_some(credits)
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
    /// because a killed peer process may respawn and re-dial mid-run:
    /// `install_conn` puts the fresh connection in place. A holder only
    /// clones the `Arc` out.
    conns: Vec<Mutex<Option<Arc<Conn>>>>,
    /// The running engine's mailboxes, link fabric and clock; set by
    /// `start_io`. Also the install lock, which `install_conn`, `start_io`
    /// and `shutdown`'s `closing` store hold throughout.
    hub: Mutex<Option<Arc<Hub>>>,
    /// Signalled by each install before the engine starts.
    admitted: Condvar,
    /// The listener's address: `shutdown` dials it to wake the acceptor.
    addr: SocketAddr,
    /// Orderly shutdown: stops the acceptor and refuses late installs.
    closing: AtomicBool,
    /// Credits a data link's receiver holds before it returns them: half
    /// the credit window, at least one. Set once by `start_io`.
    hold: AtomicU64,
    g: Counters,
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
    /// exponential backoff for ~10 s (peers may still be binding); the
    /// acceptor, serving the listener from here on, admits the higher
    /// peers. No process returns until its whole mesh is up, which makes
    /// `establish` double as a start barrier for multi-process runs.
    pub fn establish(
        my_proc: u32,
        listener: TcpListener,
        addrs: &[String],
        plan: Vec<u32>,
    ) -> std::io::Result<Arc<TcpFabric>> {
        Self::join(my_proc, listener, addrs, plan, 0..my_proc)
    }

    /// Establishes the mesh for a process **rejoining** a running system
    /// (a respawned worker): instead of the dial-lower/accept-higher
    /// split, the rejoiner dials *every* peer — each survivor's acceptor
    /// admits it into the torn slot and marks its actors back up.
    pub fn establish_rejoin(
        my_proc: u32,
        listener: TcpListener,
        addrs: &[String],
        plan: Vec<u32>,
    ) -> std::io::Result<Arc<TcpFabric>> {
        let peers = (0..addrs.len() as u32).filter(|p| *p != my_proc);
        Self::join(my_proc, listener, addrs, plan, peers)
    }

    /// Starts the acceptor, dials `dial`, and waits until every peer's
    /// slot is filled — by a dial or by the acceptor.
    fn join(
        my_proc: u32,
        listener: TcpListener,
        addrs: &[String],
        plan: Vec<u32>,
        dial: impl IntoIterator<Item = u32>,
    ) -> std::io::Result<Arc<TcpFabric>> {
        let mesh = Arc::new(TcpFabric {
            my_proc,
            plan,
            conns: addrs.iter().map(|_| Mutex::new(None)).collect(),
            hub: Mutex::new(None),
            admitted: Condvar::new(),
            addr: listener.local_addr()?,
            closing: AtomicBool::new(false),
            hold: AtomicU64::new(1),
            g: Counters::default(),
            io: Mutex::new(Vec::new()),
        });
        let acceptor = Arc::clone(&mesh);
        relock(&mesh.io).push(
            std::thread::Builder::new()
                .name("tcp-acceptor".into())
                .spawn(move || acceptor_loop(acceptor, listener))?,
        );
        for p in dial {
            match dial_peer(my_proc, p, &addrs[p as usize]) {
                Ok(stream) => mesh.install_conn(p, stream),
                Err(e) => {
                    mesh.shutdown();
                    return Err(e);
                }
            }
        }
        let peers = addrs.len().saturating_sub(1);
        let mut installs = relock(&mesh.hub);
        while mesh.conns.iter().filter(|c| relock(c).is_some()).count() < peers {
            installs = cv_wait(&mesh.admitted, installs);
        }
        drop(installs);
        Ok(mesh)
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

    /// Encodes `msg` into the write buffer of `to`'s process connection,
    /// behind the credits held on it. `false` means the connection is
    /// down: the caller counts the drop.
    pub(crate) fn send_net(&self, from: NodeId, to: NodeId, msg: NetMsg) -> bool {
        let Some(conn) = self.conn_to(to) else {
            return false;
        };
        let held = relock(&conn.held);
        let sent = conn.enqueue(held, 1, |buf| {
            encode_frame(buf, from, to, &WireMsg::Net(msg));
        });
        self.count_grants(sent)
    }

    /// Returns one consumed delivery's credit to the remote sender `from`
    /// (whose ledger holds the window of the data link `from → to`): held
    /// on its connection until the link holds `hold` credits, then sent as
    /// that many `CreditGrant` frames with every other credit held there.
    /// `true` when it queued frames to flush.
    pub(crate) fn send_grant(&self, from: NodeId, to: NodeId) -> bool {
        let Some(conn) = self.conn_to(from) else {
            return false;
        };
        let mut held = relock(&conn.held);
        let link = held.iter().position(|&(f, t, _)| (f, t) == (from, to));
        let link = link.unwrap_or_else(|| {
            held.push((from, to, 0));
            held.len() - 1
        });
        held[link].2 += 1;
        if held[link].2 < self.hold.load(Ordering::Relaxed) {
            return false;
        }
        self.count_grants(conn.enqueue(held, 0, |_| {}))
    }

    /// Counts the credits one `Conn::enqueue` sent; `true` when it queued.
    fn count_grants(&self, sent: Option<u64>) -> bool {
        if let Some(credits @ 1..) = sent {
            self.g.grants_sent.fetch_add(credits, Ordering::Relaxed);
        }
        sent.is_some()
    }

    /// Flushes every connection: a worker's call after an activation that
    /// queued frames, and before it parks.
    pub(crate) fn flush(&self) {
        for slot in &self.conns {
            let conn = relock(slot).clone();
            if let Some(conn) = conn {
                self.flush_conn(&conn);
            }
        }
    }

    fn flush_conn(&self, conn: &Conn) {
        self.count(conn.out.flush());
    }

    fn count(&self, d: Drained) {
        if d != Drained::default() {
            self.g.flushes.fetch_add(d.flushes, Ordering::Relaxed);
            self.g.frames_sent.fetch_add(d.frames, Ordering::Relaxed);
            self.g.bytes_sent.fetch_add(d.bytes, Ordering::Relaxed);
        }
    }

    /// Marks `conn` dead, then flushes what is queued on it and closes its
    /// write half. Returns `true` exactly once — the caller owning that
    /// edge runs the crash accounting.
    fn mark_dead(&self, conn: &Conn) -> bool {
        let was_alive = conn.alive.swap(false, Ordering::AcqRel);
        self.count(conn.out.close(|_| {}));
        was_alive
    }

    /// Crash accounting for a torn connection: the dead peer process's
    /// actors go down in the local fabric as one `ProcessDown` (queued
    /// credit-stalled sends purge as counted delivery drops; later sends
    /// become send drops), and `Fabric::apply`'s rule for a process crash
    /// decides who hears it — every live local actor, so it drops the
    /// subscription state the dead process held for it. Without the
    /// notification a peer that restarts *faster* than the keep-alive
    /// staleness window leaves its consumers subscribed to a node that no
    /// longer knows them — a dangling subscription that silences the
    /// stream forever.
    fn reset_conn(&self, conn: &Conn, hub: &Hub) {
        if !self.mark_dead(conn) {
            return;
        }
        let dead = FaultEvent::ProcessDown(self.actors_of(conn.peer_proc).collect());
        let heard = {
            let mut fabric = hub.fabric();
            let purged_before = fabric.stats().flow.purged;
            let heard = fabric.apply(&dead, hub.clock.now(), self.actors_of(self.my_proc));
            let purged = fabric.stats().flow.purged - purged_before;
            self.g.purged.fetch_add(purged, Ordering::Relaxed);
            // Counted once its peer is down, so a reader of the gauge
            // finds the accounting done.
            self.g.resets.fetch_add(1, Ordering::Relaxed);
            heard
        };
        for (local, fault) in heard {
            let fault = Envelope::Input(Input::Fault(fault));
            hub.sched.push(local, fault, None, hub.clock.now());
        }
    }

    /// Publishes the engine's hub and spawns the reader of every
    /// connection installed so far, under the install lock: a connection
    /// admitted meanwhile gets its reader exactly once.
    pub(crate) fn start_io(self: &Arc<Self>, hub: Arc<Hub>) {
        let window = hub.fabric().policy().window();
        let hold = window.map_or(1, |w| (w / 2).max(1));
        self.hold.store(u64::from(hold), Ordering::Relaxed);
        let mut installs = relock(&self.hub);
        for conn in self.conns.iter().filter_map(|c| relock(c).clone()) {
            self.spawn_reader(&conn, &hub);
        }
        *installs = Some(hub);
    }

    /// Spawns the reader thread of one connection.
    fn spawn_reader(self: &Arc<Self>, conn: &Arc<Conn>, hub: &Arc<Hub>) {
        let mesh = Arc::clone(self);
        let conn = Arc::clone(conn);
        let hub = Arc::clone(hub);
        relock(&self.io).push(
            std::thread::Builder::new()
                .name(format!("tcp-reader-{}", conn.peer_proc))
                .spawn(move || reader_loop(mesh, conn, hub))
                .expect("spawn tcp reader"),
        );
    }

    /// Puts a handshaken connection to `peer`, dialed or accepted, in its
    /// slot. Before the engine starts, that is all. Once it runs, the peer
    /// is rejoining: the old connection is torn down (with its crash
    /// accounting, if its reader had not run it), the peer's actors are
    /// marked back up — after which heartbeats resume — and the new
    /// connection's reader starts. A `Hello` naming this process or none of
    /// the mesh, or arriving once shutdown began, closes that socket only,
    /// as does a socket that refuses its write timeout.
    fn install_conn(self: &Arc<Self>, peer: u32, stream: TcpStream) {
        let installs = relock(&self.hub);
        if peer == self.my_proc
            || peer as usize >= self.conns.len()
            || self.closing.load(Ordering::Acquire)
            || stream.set_write_timeout(Some(WRITE_STALL)).is_err()
        {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        let conn = Arc::new(Conn::new(peer, stream));
        let old = relock(&self.conns[peer as usize]).replace(Arc::clone(&conn));
        let Some(hub) = installs.as_ref() else {
            self.admitted.notify_all();
            return;
        };
        if let Some(old) = old {
            // Usually already dead (the reader saw the torn socket when
            // the peer was killed); if the kill and the rejoin raced, the
            // crash accounting runs now, before the NodeUp below.
            self.reset_conn(&old, hub);
        }
        let back = FaultEvent::ProcessUp(self.actors_of(peer).collect());
        hub.fabric().apply(&back, hub.clock.now(), []);
        self.spawn_reader(&conn, hub);
    }

    /// The mesh's wire gauges: its counters, and the connections alive now.
    pub fn wire_gauges(&self) -> WireGauges {
        let conns = self.conns.iter().filter_map(|c| relock(c).clone());
        let (g, load) = (&self.g, |n: &AtomicU64| n.load(Ordering::Relaxed));
        WireGauges {
            conns: conns.filter(|c| c.alive.load(Ordering::Acquire)).count() as u64,
            bytes_sent: load(&g.bytes_sent),
            bytes_recv: load(&g.bytes_recv),
            frames_sent: load(&g.frames_sent),
            frames_recv: load(&g.frames_recv),
            flushes: load(&g.flushes),
            grants_sent: load(&g.grants_sent),
            grants_recv: load(&g.grants_recv),
            purged_frames: load(&g.purged),
            resets: load(&g.resets),
        }
    }

    /// Orderly teardown: stops the acceptor, sends a `Goodbye` on every
    /// live connection, flushes, shuts the write halves down (a reader
    /// holding the flush role does so as it lets go), and joins the I/O
    /// threads (each reader exits on its peer's `Goodbye` + EOF, or was
    /// already gone). Idempotent.
    pub fn shutdown(&self) {
        let first = {
            let _installs = relock(&self.hub);
            !self.closing.swap(true, Ordering::AcqRel)
        };
        if first {
            // Wakes the acceptor's blocking `accept`; it sees `closing`.
            let _ = TcpStream::connect(self.addr);
        }
        for slot in &self.conns {
            let Some(conn) = relock(slot).clone() else {
                continue;
            };
            if conn.alive.load(Ordering::Acquire) {
                let (me, peer) = (NodeId(self.my_proc), NodeId(conn.peer_proc));
                let goodbye =
                    |buf: &mut Vec<u8>| _ = encode_frame(buf, me, peer, &WireMsg::Goodbye);
                self.count(conn.out.close(goodbye));
            }
        }
        let handles: Vec<JoinHandle<()>> = relock(&self.io).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Tears every connection down without a `Goodbye`: the peers observe
    /// what a killed process leaves them, a crash rather than a clean
    /// close. `shutdown` then stops the acceptor and joins the readers.
    pub fn crash(&self) {
        for conn in self.conns.iter().filter_map(|c| relock(c).clone()) {
            let _ = conn.stream().shutdown(Shutdown::Both);
        }
    }
}

/// Dials one peer and announces ourselves with a `Hello` frame.
fn dial_peer(my_proc: u32, peer: u32, addr: &str) -> std::io::Result<TcpStream> {
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
    Ok(stream)
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

/// The acceptor thread, from `establish` to `shutdown`: blocks in
/// `accept` and hands every accepted socket to a handshake thread of its
/// own. A failed accept loses that one dialer, not the acceptor.
fn acceptor_loop(mesh: Arc<TcpFabric>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        if mesh.closing.load(Ordering::Acquire) {
            return;
        }
        if let Ok((stream, _)) = accepted {
            let mesh = Arc::clone(&mesh);
            // Not joined: `shutdown` must not wait out a silent dialer's
            // deadline, and a handshake ending after it installs nothing.
            // A failed spawn drops the closure, closing the socket.
            let _ = std::thread::Builder::new()
                .name("tcp-handshake".into())
                .spawn(move || handshake(mesh, stream));
        }
    }
}

/// One accepted socket's handshake: reads its `Hello` under a 30 s
/// deadline and installs the connection. Anything else closes the socket
/// (by dropping it); a silent dialer holds this thread and nothing more.
fn handshake(mesh: Arc<TcpFabric>, stream: TcpStream) {
    let deadline = Some(std::time::Duration::from_secs(30));
    let peer = stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(deadline))
        .and_then(|()| read_hello(&stream))
        .and_then(|peer| stream.set_read_timeout(None).map(|()| peer));
    if let Ok(peer) = peer {
        mesh.install_conn(peer, stream);
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

/// The reader thread: reads straight into its decode buffer, dispatches
/// every complete frame, flushes the connection, and translates the
/// connection's end into either a clean close or a crash.
fn reader_loop(mesh: Arc<TcpFabric>, conn: Arc<Conn>, hub: Arc<Hub>) {
    // `buf[..filled]` holds the bytes of frames not yet whole; each read
    // lands right behind them.
    let mut buf = vec![0u8; READ_CHUNK];
    let mut filled = 0usize;
    let (ours, theirs) = (mesh.my_proc, conn.peer_proc);
    loop {
        // Drain every complete frame before reading more.
        let mut consumed = 0usize;
        loop {
            match decode_frame(&buf[consumed..filled]) {
                Ok(Some((from, to, msg, used))) => {
                    consumed += used;
                    mesh.g.frames_recv.fetch_add(1, Ordering::Relaxed);
                    match msg {
                        WireMsg::Net(m) if mesh.placed(from, theirs) && mesh.placed(to, ours) => {
                            // Straight into the destination mailbox: the
                            // fabric's delivery-time checks run when the
                            // worker processes it, the same as an
                            // in-process send.
                            let message = Input::Message { from, msg: m };
                            hub.sched
                                .push(to, Envelope::Input(message), None, hub.clock.now());
                        }
                        WireMsg::CreditGrant
                            if mesh.placed(from, ours) && mesh.placed(to, theirs) =>
                        {
                            mesh.g.grants_recv.fetch_add(1, Ordering::Relaxed);
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
        // The messages the grants just read released, and a tail a stalled
        // flush left: the peer is reading again.
        mesh.flush_conn(&conn);
        buf.copy_within(consumed..filled, 0);
        filled -= consumed;
        if buf.len() - filled < READ_CHUNK / 2 {
            buf.resize(filled + READ_CHUNK, 0);
        }
        match conn.stream().read(&mut buf[filled..]) {
            Ok(0) => {
                if conn.peer_goodbye.load(Ordering::Acquire) {
                    mesh.mark_dead(&conn);
                } else {
                    mesh.reset_conn(&conn, &hub);
                }
                return;
            }
            Ok(n) => {
                mesh.g.bytes_recv.fetch_add(n as u64, Ordering::Relaxed);
                filled += n;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                mesh.reset_conn(&conn, &hub);
                return;
            }
        }
    }
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

/// The local-first candidate order of `spec`, an actor hosted in process
/// `proc`: each of its inputs lists the candidates `plan` places in `proc`
/// ahead of the others, both groups in their given order. A consumer
/// subscribes to its first candidate and fails over in candidate order, so
/// it reads a co-located replica, over no socket, while one is up.
fn local_first(spec: &mut ActorSpec, plan: &[u32], proc: u32) {
    let inputs = match spec {
        ActorSpec::Node(cfg) => &mut cfg.upstreams,
        ActorSpec::Client { streams, .. } => streams,
        ActorSpec::Source(_) => return,
    };
    for input in inputs {
        input
            .candidates
            .sort_by_key(|c| plan.get(c.index()) != Some(&proc));
    }
}

/// Launches this process's share of a resolved [`SystemLayout`] over an
/// established [`TcpFabric`]: actors planned here run for real, actors
/// planned elsewhere become inert stubs that are stopped immediately (a
/// send to one travels the wire instead). Every hosted consumer prefers
/// the upstream replicas planned in this process (`local_first`). The
/// scripted fault script replays in every process, keeping the fabrics'
/// decisions consistent.
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
        .map(|(i, mut spec)| {
            let id = NodeId(i as u32);
            if fabric.is_remote(id) {
                remote.push(id);
                Box::new(RemoteStub) as Box<dyn DpcActor<NetMsg>>
            } else {
                local_first(&mut spec, &fabric.plan, fabric.my_proc);
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
    use borealis_types::{
        CreditPolicy, Duration, StreamId, Time, Tuple, TupleBatch, TupleId, Value,
    };

    /// A one-tuple data message numbered `n` through its stream id.
    fn data_msg(n: u32) -> NetMsg {
        NetMsg::Data {
            stream: StreamId(n),
            tuples: TupleBatch::single(Tuple::boundary(TupleId::NONE, Time::ZERO)).into(),
        }
    }

    /// Two fabrics over loopback in one OS process. Sequential establish
    /// works because the dialer's connect completes against the
    /// listener's backlog before its acceptor starts. `before` runs with
    /// the address map ahead of both.
    fn fabric_pair_after(
        plan: Vec<u32>,
        before: impl FnOnce(&[String]),
    ) -> (Arc<TcpFabric>, Arc<TcpFabric>) {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![
            l0.local_addr().unwrap().to_string(),
            l1.local_addr().unwrap().to_string(),
        ];
        before(&addrs);
        let f1 = TcpFabric::establish(1, l1, &addrs, plan.clone()).unwrap();
        let f0 = TcpFabric::establish(0, l0, &addrs, plan).unwrap();
        (f0, f1)
    }

    fn fabric_pair(plan: Vec<u32>) -> (Arc<TcpFabric>, Arc<TcpFabric>) {
        fabric_pair_after(plan, |_| {})
    }

    /// Sends a burst of data messages to a remote consumer on start, each
    /// numbered through its stream id.
    struct Burst {
        to: NodeId,
        n: usize,
    }
    impl DpcActor<NetMsg> for Burst {
        fn on_start(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>) {
            for i in 0..self.n {
                ctx.send(self.to, data_msg(i as u32));
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

    /// Records the number of every data message it consumes, in arrival
    /// order (credit returns right away, as for [`Counter`]).
    struct Log {
        seen: Arc<Mutex<Vec<u32>>>,
    }
    impl DpcActor<NetMsg> for Log {
        fn on_message(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>, _from: NodeId, msg: NetMsg) {
            if let NetMsg::Data { stream, .. } = msg {
                relock(&self.seen).push(stream.0);
            }
        }
        fn on_timer(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>, _kind: u64) {}
    }

    /// Credits `f` holds for process `peer`, on every link.
    fn held(f: &TcpFabric, peer: u32) -> u64 {
        let conn = relock(&f.conns[peer as usize]).clone().expect("mesh is up");
        let held = relock(&conn.held);
        held.iter().map(|(_, _, n)| n).sum()
    }

    /// Actor 0 bursts `n` data messages at actor 1; actor 1 is remote.
    fn sender(n: usize) -> Vec<Box<dyn DpcActor<NetMsg>>> {
        vec![Box::new(Burst { to: NodeId(1), n }), Box::new(RemoteStub)]
    }

    /// Actor 1 counts into `seen`; actor 0 is remote.
    fn counter(seen: &Arc<AtomicUsize>) -> Vec<Box<dyn DpcActor<NetMsg>>> {
        let seen = Arc::clone(seen);
        vec![Box::new(RemoteStub), Box::new(Counter { seen })]
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

    /// Actor 0 (proc 0) bursts 4 data messages at actor 1 (proc 1) under
    /// Window(1): three queue in proc 0's ledger and release one by one as
    /// CreditGrant frames come back.
    fn assert_credits_flow(f0: Arc<TcpFabric>, f1: Arc<TcpFabric>) {
        let seen = Arc::new(AtomicUsize::new(0));
        let rt0 = spawn_proc(&f0, sender(4), CreditPolicy::Window(1));
        let rt1 = spawn_proc(&f1, counter(&seen), CreditPolicy::Window(1));
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

    #[test]
    fn window_one_credits_flow_across_the_wire() {
        let (f0, f1) = fabric_pair(vec![0, 1]);
        assert_credits_flow(f0, f1);
    }

    /// Under `Window(4)` the receiver holds two credits before it returns
    /// them: actor 0 (proc 0) bursts 1,001 data messages at actor 1 (proc
    /// 1), all of which arrive in order, and the sender's ledger ends with
    /// nothing queued, so no link stalled. The last credit stays held until the
    /// next frame proc 1 sends proc 0 carries it back.
    #[test]
    fn held_credits_keep_a_window_of_four_flowing() {
        const N: u64 = 1_001;
        let (f0, f1) = fabric_pair(vec![0, 1]);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Box::new(Log {
            seen: Arc::clone(&seen),
        });
        let window = CreditPolicy::Window(4);
        let rt0 = spawn_proc(&f0, sender(N as usize), window);
        let rt1 = spawn_proc(&f1, vec![Box::new(RemoteStub), log], window);
        let one_held = || held(&f1, 0) == 1 && f0.wire_gauges().grants_recv == N - 1;
        let paired = wait_until(one_held, 20_000);
        let (mid, flow0) = (f0.wire_gauges(), rt0.fabric().stats().flow);
        assert!(f1.send_net(NodeId(1), NodeId(0), NetMsg::HeartbeatReq));
        f1.flush();
        let drained = wait_until(|| rt0.fabric().stats().flow.inflight_now == 0, 5000);
        rt0.shutdown();
        rt1.shutdown();
        f0.shutdown();
        f1.shutdown();
        let seen = relock(&seen).clone();
        assert_eq!(seen, (0..N as u32).collect::<Vec<_>>(), "all, in order");
        assert!(paired, "{mid:?}");
        assert_eq!(mid.grants_recv, N - 1, "the last credit is held: {mid:?}");
        assert_eq!((flow0.queued_now, flow0.inflight_now), (0, 1), "{flow0:?}");
        assert!(drained, "the held credit rode along");
        let (w0, w1) = (f0.wire_gauges(), f1.wire_gauges());
        assert_eq!((w1.grants_sent, w0.grants_recv), (N, N), "{w1:?}");
        assert!(w1.flushes <= N / 2 + 1, "grants go back in pairs: {w1:?}");
    }

    /// A connection torn while its receiver holds a credit takes the credit
    /// with it. Under `Window(4)` the first incarnation of proc 1 sends 3:
    /// two credits go back, one is held when proc 1 is killed. The
    /// respawned proc 1 starts with a full window and sends 3 more: two
    /// credits come back at once, and the third rides on the next frame
    /// proc 0 sends it. Its ledger for the link ends at zero in flight,
    /// having received exactly its own 3 credits — none of the first
    /// incarnation's.
    #[test]
    fn a_rejoined_peer_never_receives_credit_held_for_its_predecessor() {
        let window = CreditPolicy::Window(4);
        let (f0, rt0, seen) = survivor_of_a_kill(window, 3, 2);
        let (f1, rt1) = respawn(&f0, window);
        let consumed = wait_until(|| seen.load(Ordering::SeqCst) == 6, 5000);
        let one_held = || held(&f0, 1) == 1 && f1.wire_gauges().grants_recv == 2;
        let paired = wait_until(one_held, 5000);
        // Any frame to proc 1 carries the credit held on its connection.
        assert!(f0.send_net(NodeId(1), NodeId(0), NetMsg::HeartbeatReq));
        f0.flush();
        let returned = wait_until(|| rt1.fabric().stats().flow.inflight_now == 0, 5000);
        let flow1 = rt1.fabric().stats().flow;
        rt1.shutdown();
        f1.shutdown();
        rt0.shutdown();
        f0.shutdown();
        assert!(consumed && paired, "{:?}", f1.wire_gauges());
        assert!(returned, "the held credit rode along: {flow1:?}");
        let w1 = f1.wire_gauges();
        assert_eq!(w1.grants_recv, 3, "no stale grant: {w1:?}");
        assert_eq!(flow1.delivered, 3, "{flow1:?}");
    }

    /// The local-first rule on a replicated, sharded chain spread over
    /// three processes by `plan_processes`: every consumer with a replica
    /// of its upstream in its own process lists that replica first;
    /// sources and the client (in process 0, with no replica beside it)
    /// keep the order they had.
    #[test]
    fn consumers_list_the_replicas_of_their_own_process_first() {
        use borealis_diagram::{plan_deployment, DeploymentSpec, DpcConfig};
        use borealis_diagram::{FragmentSpec, QueryBuilder};
        use borealis_dpc::{plan_processes, SourceConfig, SystemBuilder, UpstreamSpec};
        use borealis_types::Expr;
        let mut q = QueryBuilder::new();
        let (s1, s2) = (q.source("s1"), q.source("s2"));
        let ingest = q.union("ingest", &[s1, s2]);
        let work = q.map("work", ingest, vec![Expr::field(0)]);
        let deliver = q.map("deliver", work, vec![Expr::field(0)]);
        q.output(deliver);
        let fragment = |name: &str| FragmentSpec::named(name).op(name).replication(2);
        let spec = DeploymentSpec::new()
            .fragment(fragment("ingest"))
            .fragment(fragment("work").shards(2, Expr::field(0)))
            .fragment(fragment("deliver"));
        let diagram = q.build().unwrap();
        let plan = plan_deployment(&diagram, &spec, &DpcConfig::default()).unwrap();
        let mut layout = SystemBuilder::new(1, Duration::from_millis(1))
            .source(SourceConfig::seq(s1.id(), 100.0))
            .source(SourceConfig::seq(s2.id(), 100.0))
            .plan(plan)
            .client_streams(vec![deliver.id()])
            .layout();
        let procs = plan_processes(&layout, 3);
        let inputs = |spec: &ActorSpec| -> Vec<UpstreamSpec> {
            match spec {
                ActorSpec::Node(cfg) => cfg.upstreams.clone(),
                ActorSpec::Client { streams, .. } => streams.clone(),
                ActorSpec::Source(_) => Vec::new(),
            }
        };
        let (mut local, mut moved) = (0, 0);
        for (i, spec) in layout.actors.iter_mut().enumerate() {
            let before = inputs(spec);
            local_first(spec, &procs, procs[i]);
            let after = inputs(spec);
            for (was, now) in before.iter().zip(&after) {
                let sorted = |c: &[NodeId]| {
                    let mut c = c.to_vec();
                    c.sort();
                    c
                };
                assert_eq!(sorted(&now.candidates), sorted(&was.candidates));
                let here = |c: &NodeId| procs[c.index()] == procs[i];
                if was.candidates.len() == 1 || !was.candidates.iter().any(here) {
                    assert_eq!(now.candidates, was.candidates, "actor {i} keeps its order");
                    continue;
                }
                assert!(here(&now.candidates[0]), "actor {i} reads locally: {now:?}");
                local += 1;
                moved += usize::from(now.candidates != was.candidates);
            }
        }
        let client = layout.client.expect("a client").index();
        assert_eq!(procs[client], 0, "the client stays with the launcher");
        assert!(
            local > 0 && moved > 0,
            "{local} local inputs, {moved} reordered"
        );
    }

    /// A stranger ahead of the real peer in process 0's backlog, sending 17
    /// bytes that are not a `Hello`, loses only its own socket: the mesh
    /// still comes up.
    #[test]
    fn a_stray_dialer_cannot_abort_establish() {
        let mut stray = None;
        let (f0, f1) = fabric_pair_after(vec![0, 1], |addrs| {
            let mut s = TcpStream::connect(&addrs[0]).unwrap();
            s.write_all(&[0xAB; HELLO_LEN]).unwrap();
            stray = Some(s);
        });
        assert_credits_flow(f0, f1);
        drop(stray);
    }

    /// Every id in a frame header is checked against the plan before the
    /// frame is dispatched: a `Data` frame must come from the peer's
    /// process and go to ours, a `CreditGrant` the reverse. Each hostile
    /// header below resets the connection like a corrupt frame, and no
    /// actor sees the frame.
    #[test]
    fn frames_naming_links_outside_the_plan_reset_the_connection() {
        let (data, grant) = (|| WireMsg::Net(data_msg(0)), WireMsg::CreditGrant);
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
            let encode = |buf: &mut Vec<u8>| _ = encode_frame(buf, NodeId(from), NodeId(to), &msg);
            assert!(conn.enqueue(relock(&conn.held), 1, encode).is_some());
            f0.flush_conn(&conn);
            let reset = wait_until(|| f1.wire_gauges().resets > 0, 3000);
            rt1.shutdown(); // panics naming any actor that panicked
            assert!(reset, "{case}: the receiver resets the connection");
            assert_eq!(seen.load(Ordering::SeqCst), 0, "{case}: seen by an actor");
            rt0.shutdown();
            f0.shutdown();
            f1.shutdown();
        }
    }

    /// Sends one data message to a remote actor on every tick of a 10 ms
    /// timer — numbered through its stream id, and `big` tuples long while
    /// `big` is set — and records each tick's instant.
    struct Ticker {
        big: Arc<AtomicBool>,
        batch: TupleBatch,
        ticks: Arc<Mutex<Vec<Time>>>,
    }
    impl DpcActor<NetMsg> for Ticker {
        fn on_start(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>) {
            ctx.set_timer(ctx.now() + Duration::from_millis(10), 0);
        }
        fn on_message(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>, _from: NodeId, _msg: NetMsg) {}
        fn on_timer(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, _kind: u64) {
            let mut ticks = relock(&self.ticks);
            let stream = StreamId(ticks.len() as u32);
            ticks.push(ctx.now());
            let tuples = match self.big.load(Ordering::SeqCst) {
                true => self.batch.clone(),
                false => self.batch.slice(0..1),
            };
            ctx.send(
                NodeId(1),
                NetMsg::Data {
                    stream,
                    tuples: tuples.into(),
                },
            );
            ctx.set_timer(ctx.now() + Duration::from_millis(10), 0);
        }
    }

    /// Process 1 is a bare socket that says `Hello` and then reads nothing
    /// while process 0's ticker sends it half a megabyte every tick. The
    /// kernel's buffers fill, each flush gives up after its write timeout,
    /// and the connection's buffer grows — but no worker is held: the
    /// ticks keep their schedule. Once the peer reads again, every frame
    /// arrives, in order.
    #[test]
    fn a_peer_that_stops_reading_holds_no_worker() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![l0.local_addr().unwrap().to_string(), String::new()];
        let mut peer = TcpStream::connect(&addrs[0]).unwrap();
        let mut hello = Vec::new();
        encode_frame(
            &mut hello,
            NodeId(1),
            NodeId(0),
            &WireMsg::Hello { proc: 1 },
        );
        peer.write_all(&hello).unwrap();
        let f0 = TcpFabric::establish(0, l0, &addrs, vec![0, 1]).unwrap();
        let tuples =
            (0..16_384).map(|i| Tuple::insertion(TupleId(i), Time::ZERO, vec![Value::Int(1)]));
        let (big, ticks) = (
            Arc::new(AtomicBool::new(true)),
            Arc::new(Mutex::new(Vec::new())),
        );
        let ticker = Ticker {
            big: Arc::clone(&big),
            batch: TupleBatch::from_vec(tuples.collect()),
            ticks: Arc::clone(&ticks),
        };
        let rt0 = spawn_proc(
            &f0,
            vec![Box::new(ticker), Box::new(RemoteStub)],
            CreditPolicy::Unbounded,
        );
        // Dropped before the runtime if an assertion fails, so a worker
        // stuck in a write would be released rather than hang the test.
        let mut peer = peer;
        let conn = relock(&f0.conns[1]).clone().expect("mesh is up");
        let queued = wait_until(|| conn.out.pending() > 8 << 20, 20_000);
        big.store(false, Ordering::SeqCst);
        let stalled: Vec<Time> = relock(&ticks).clone();
        assert!(
            queued,
            "the buffer grows: {} bytes after {} ticks",
            conn.out.pending(),
            stalled.len()
        );
        let elapsed = stalled[stalled.len() - 1] - stalled[0];
        let slowest = stalled.windows(2).map(|w| w[1] - w[0]).max().unwrap();
        assert!(
            slowest < Duration::from_millis(100),
            "a tick waited {slowest:?}"
        );
        assert!(
            elapsed < Duration::from_millis(30 * stalled.len() as u64),
            "{elapsed:?}"
        );
        // The peer reads again: the ticks' flushes resume the queued tail.
        peer.set_read_timeout(Some(std::time::Duration::from_secs(20)))
            .unwrap();
        let (mut buf, mut next) = (Vec::new(), 0u32);
        while next < stalled.len() as u32 + 3 {
            let mut chunk = [0u8; 64 * 1024];
            let n = peer.read(&mut chunk).expect("every frame arrives");
            assert!(n > 0, "the connection stays up");
            buf.extend_from_slice(&chunk[..n]);
            let mut used = 0;
            while let Some((_, _, msg, len)) = decode_frame(&buf[used..]).unwrap() {
                used += len;
                let WireMsg::Net(NetMsg::Data { stream, .. }) = msg else {
                    panic!("only data is sent: {msg:?}");
                };
                assert_eq!(stream.0, next, "frames arrive in order");
                next += 1;
            }
            buf.drain(..used);
        }
        drop(peer);
        rt0.shutdown();
        f0.shutdown();
    }

    #[test]
    fn torn_connection_is_a_crash_with_counted_drops() {
        let (f0, f1) = fabric_pair(vec![0, 1]);
        let seen = Arc::new(AtomicUsize::new(0));
        let rt0 = spawn_proc(&f0, sender(2), CreditPolicy::Window(1));
        let rt1 = spawn_proc(&f1, counter(&seen), CreditPolicy::Window(1));
        assert!(wait_until(|| seen.load(Ordering::SeqCst) >= 1, 5000));
        // Tear the socket down with no Goodbye: both sides must see a
        // reset, mark the peer's actors down, and count later sends as
        // drops.
        f0.crash();
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

    /// Actor 0 lives in proc 1 (the sender), actor 1 in proc 0 (the
    /// counter). After `n` deliveries, `grants` credits returned and the
    /// rest held, proc 1 dies hard — a torn socket, no `Goodbye` — and
    /// proc 0, returned here, marks its actor down.
    fn survivor_of_a_kill(
        policy: CreditPolicy,
        n: usize,
        grants: u64,
    ) -> (Arc<TcpFabric>, ThreadRuntime, Arc<AtomicUsize>) {
        let (f0, f1) = fabric_pair(vec![1, 0]);
        let seen = Arc::new(AtomicUsize::new(0));
        let rt0 = spawn_proc(&f0, counter(&seen), policy);
        let rt1 = spawn_proc(&f1, sender(n), policy);
        assert!(wait_until(|| seen.load(Ordering::SeqCst) == n, 5000));
        let kept = n as u64 - grants;
        assert!(wait_until(|| f1.wire_gauges().grants_recv == grants, 5000));
        assert!(wait_until(|| held(&f0, 1) == kept, 5000));
        f1.crash();
        assert!(
            wait_until(|| !rt0.fabric().node_up(NodeId(0)), 5000),
            "torn socket marks the peer's actor down"
        );
        rt1.shutdown();
        f1.shutdown();
        (f0, rt0, seen)
    }

    /// Respawns proc 1, which rejoins `f0`'s mesh and sends 3 more. (A real
    /// respawn rebinds its configured address; a fresh port keeps the test
    /// race-free.) It runs an engine of its own: `f0`'s shutdown waits for
    /// its `Goodbye`.
    fn respawn(f0: &TcpFabric, policy: CreditPolicy) -> (Arc<TcpFabric>, ThreadRuntime) {
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = [f0.addr.to_string(), l1.local_addr().unwrap().to_string()];
        let f1 = TcpFabric::establish_rejoin(1, l1, &addrs, f0.plan.clone()).unwrap();
        let rt1 = spawn_proc(&f1, sender(3), policy);
        (f1, rt1)
    }

    #[test]
    fn respawned_peer_rejoins_and_delivers_again() {
        // A dialer that is not a peer is closed at once; then a fresh
        // fabric rejoins through the acceptor — the slot is reinstalled,
        // the actor marked back up, and deliveries resume.
        let (f0, rt0, seen) = survivor_of_a_kill(CreditPolicy::Window(1), 2, 2);
        // The handshake reads one `Hello`'s 17 bytes and no more: the first
        // 17 bytes of a 1 MiB `Data` frame, then silence, are refused at
        // once rather than read until the handshake's 30 s timeout.
        let mut silent = TcpStream::connect(f0.addr).unwrap();
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
        let (f1b, rt1b) = respawn(&f0, CreditPolicy::Window(1));
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

    /// Two dialers that never finish a handshake — one sends nothing, one
    /// 3 bytes — each hold only their own handshake thread: the rejoin
    /// behind them is admitted at once, not after their 30 s deadlines.
    #[test]
    fn silent_dialers_do_not_stall_a_rejoin() {
        let (f0, rt0, seen) = survivor_of_a_kill(CreditPolicy::Window(1), 2, 2);
        let mute = TcpStream::connect(f0.addr).unwrap();
        let mut partial = TcpStream::connect(f0.addr).unwrap();
        partial.write_all(&[17, 0, 0]).unwrap();
        let started = Instant::now();
        let (f1, rt1) = respawn(&f0, CreditPolicy::Window(1));
        assert!(
            wait_until(|| rt0.fabric().node_up(NodeId(0)), 3000),
            "the rejoin waited {:?} behind silent dialers",
            started.elapsed()
        );
        assert!(wait_until(|| seen.load(Ordering::SeqCst) == 5, 5000));
        drop((mute, partial));
        rt1.shutdown();
        f1.shutdown();
        rt0.shutdown();
        f0.shutdown();
    }
}
