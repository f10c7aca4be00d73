#!/usr/bin/env bash
# The source-level lints, one command locally and in CI. Each guards a
# "there is one of these" decision of an earlier PR against creeping back;
# the first failure prints the offending lines and exits non-zero.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

fail() { echo "lint failed: $1" >&2; exit 1; }

# Sync facade: every sync primitive in crates/runtime must come through
# crate::sync, or the model checker can't see it. A `std::sync` after a
# `//` on its line is a comment and passes.
if git grep --untracked -nE '^([^/]|/[^/])*std::sync' -- crates/runtime/src ':!crates/runtime/src/sync.rs'; then fail "sync facade"; fi

# One fault vocabulary: tests and workloads say faults as
# `FaultSpec`s handed to the builder — never as raw events pushed into the
# simulator's queue — and the simulator-only `RunningSystem` fault verbs
# stay deleted everywhere.
if git grep -nE 'schedule_fault|FaultEvent::' -- tests crates/workloads; then fail "fault vocabulary"; fi
if git grep -nE 'disconnect_source|mute_boundaries|crash_node|crash_shard_node' -- '*.rs'; then fail "fault vocabulary"; fi

# One data entry point per layer: `Operator::process_batch` is the operator
# contract, so the single-tuple convenience the trait provides is the only
# `fn process(` under crates/ops/src, and the per-link `filter_batch` —
# replaced by the one-pass `ShardRouter` — stays deleted.
if [ "$(git grep -n 'fn process(' -- crates/ops/src | wc -l)" -gt 1 ]; then git grep -n 'fn process(' -- crates/ops/src; fail "entry point"; fi
if git grep -n 'filter_batch' -- '*.rs'; then fail "entry point"; fi

# One node under every driver: outside the fabric itself only the
# activation step (`ActorCell::activate`, crates/sim/src/node.rs) asks for
# an arrival or a timer verdict, and neither driver keeps a (deadline, seq)
# heap of its own beside `DeadlineQueue`. Both speak one event vocabulary:
# the pool's wheel holds the kernel's `Event`s and its mailboxes `Input`s,
# its fault script replays on that wheel rather than a thread of its own,
# and the socket mesh's connection slots take the one lock kind.
callers=$(git grep -lE '\.(arrive|timer_fires)\(' -- '*.rs' ':!crates/sim/src/fabric.rs' ':!*/tests/*' ':!*_tests.rs' || true)
if [ "$(echo "$callers" | grep -c .)" -gt 1 ]; then echo "$callers"; fail "activation"; fi
if git grep -nE 'impl(<.*>)? Ord for' -- crates/sim/src/kernel.rs; then fail "activation"; fi
if git grep -nE '\bDue\b|fault_controller|recv_timeout|RwLock' -- crates/runtime/src crates/check/src; then fail "activation"; fi

# One decode surface: bytes from a socket or a disk are parsed through
# `wire::Reader` / `Wire` only, and a decoded count sizes an allocation
# only by `Reader::seq`'s rule — so no `from_le_bytes` outside wire.rs
# (and the model checker's own crate), and no magic pre-allocation cap.
# (Hashing's `to_le_bytes` in shard.rs is not decoding.)
if git grep -nE 'from_le_bytes|\.min\(1024\)' -- crates src ':!crates/types/src/wire.rs' ':!crates/check' ':!*/tests/*' ':!*_tests.rs'; then fail "codec"; fi

# One payload type: tuple attributes are a `Payload` (inline up to one
# attribute, shared beyond), so a shared slice of values is named only
# where `Payload` is defined — an operator that collected one itself would
# allocate where an inline payload needs nothing.
if git grep -n 'Arc<\[Value\]>' -- '*.rs' ':!crates/types/src/tuple.rs' ':!*/tests/*' ':!tests/*' ':!*_tests.rs'; then fail "payload"; fi

# One overload signal: a link's credit stall is read by its sender, off the
# ledger it owns, and travels to the consumer in the sender's keep-alive
# reply. Outside the ledger itself only the simulator's and the pool's
# contexts, answering `Ctx::outbound_stall`, read it, and the socket
# layer's stall telemetry stays deleted.
if git grep -n 'stalled_for(' -- '*.rs' ':!crates/sim/src/fabric.rs' ':!crates/sim/src/flow.rs' ':!crates/sim/src/kernel.rs' ':!crates/runtime/src/engine.rs' ':!*/tests/*' ':!tests/*' ':!*_tests.rs'; then fail "backpressure"; fi
if git grep -nE 'StallReport|inbound_stall|remote_stall' -- '*.rs'; then fail "backpressure"; fi

# One contiguous view: `ShardRouter` splits a produced batch once into one
# contiguous batch per shard, so a message's `BatchView` is one slice and
# the run-list form (its constructor, per-run iteration, identity compare)
# and the per-view splitter stay deleted.
if git grep -nE 'from_runs|split_views|same_view|run_batches' -- '*.rs'; then fail "contiguous view"; fi

# One serialization order: SUnion emits a bucket in `(stime, port, id)`
# order by merging its ports' runs, each sorted only if that input
# reordered it — so no sort there keys on the port (the whole-bucket sort
# of every arrival stays deleted).
if git grep -nE 'sort[a-z_]*\(.*\bport\b' -- crates/ops/src/sunion.rs; then fail "one serialization order"; fi

# One durable log: a checkpoint is a record of the node's input log, made
# durable by one fsync of the segment it begins, so the content-addressed
# object store, its `HEAD` pointers, their rename-and-fsync helpers and the
# byte-at-a-time record hash stay deleted from the durability layer.
if git grep -nE 'HEAD\.prev|objects/|write_atomic|sync_dir|fn fnv64' -- crates/store crates/core/src/durable.rs; then fail "one durable log"; fi

# One flusher per process: a replica queues its checkpoint seals on the
# process's one `borealis-flusher` thread, so the durability layer holds no
# thread handle of its own and starts one thread in all.
if git grep -n 'JoinHandle' -- crates/core/src/durable.rs; then fail "one flusher per process"; fi
if [ "$(git grep -n 'thread::Builder' -- crates/core/src crates/store/src | wc -l)" -gt 1 ]; then git grep -n 'thread::Builder' -- crates/core/src crates/store/src; fail "one flusher per process"; fi

# One planning pass: the physical streams (crossings, shard substreams)
# are decided before any fragment is lowered, so each fragment is lowered
# once — the second pass that rewrote the first one's inputs, its
# intermediate plan, its per-input origin tags and the macros the old
# lowering was written in stay deleted.
if git grep -nE 'fn expand_inputs|struct LogicalPlan|StreamOrigin|macro_rules!' -- crates/diagram/src; then fail "one planning pass"; fi

# One way into the mesh: the socket mesh's acceptor blocks in its one
# `accept` and hands each socket's handshake to a thread of its own, so
# every connection enters through one install — the non-blocking poll and
# the list that kept replaced connections for their counters stay deleted.
if [ "$(git grep --untracked -n '\.accept()' -- crates/runtime/src | wc -l)" -ne 1 ]; then git grep --untracked -n '\.accept()' -- crates/runtime/src; fail "one way into the mesh"; fi
if git grep --untracked -nE 'set_nonblocking|WouldBlock|retired' -- crates/runtime/src; then fail "one way into the mesh"; fi

# One flush path: whoever fills a connection's write buffer flushes it,
# through the one outbox and its flush role (crates/runtime/src/outbox.rs),
# so the per-connection writer thread and its loop stay deleted.
if git grep --untracked -nE 'writer_loop|tcp-writer' -- '*.rs'; then fail "one flush path"; fi

# One socket-mesh harness: a multi-process deployment is tested as shares of
# one process over loopback sockets (`tests/common::run_on`), a process crash
# and respawn included, so no test forks a binary and the chain-only
# launcher and its argv codec stay deleted.
if git grep -nE 'CARGO_BIN_EXE|Command::new|TcpChainSpec' -- '*.rs' ':!benchmark'; then fail "one socket-mesh harness"; fi

# One crash fault: a crash is a `FaultSpec::Crash` over a failure domain —
# one replica, or every actor of one process — on every runtime, so the
# replica-only variant and the socket-mesh-only harness option stay
# deleted from the code, CI and the docs (the frozen benchmark's README
# and the top-level change logs keep their history).
if git grep -nE 'TcpRejoin|CrashReplica' -- '*.rs' '*.yml' '*/*.md' README.md ':!benchmark'; then fail "one crash fault"; fi

# One consumer path: every consumer, the client proxy included, sends
# keep-alives to every producer of every input and applies one staleness
# rule, so a lone producer that restarts is noticed and re-subscribed like
# any replica — the per-stream switch that left single-producer inputs
# unmonitored stays deleted.
if git grep -nE 'monitor_all|self\.monitor\b|monitor: bool' -- '*.rs'; then fail "one consumer path"; fi

# One pool clock: every timer, credit return and scripted fault of the
# worker pool waits on the one wheel its workers share, so the runtime
# builds one `DeadlineQueue` and no worker keeps a wheel of its own — the
# per-worker wheels, and worker 0's hold on the fault script, stay deleted.
built=$(git grep --untracked -nE 'DeadlineQueue(::<.*>)?::(default|new)\(' -- crates/runtime/src || true)
if [ "$(echo "$built" | grep -c .)" -ne 1 ]; then echo "$built"; fail "one pool clock"; fi
if git grep --untracked -h -A30 '^struct Worker {' -- crates/runtime/src | sed '/^}/q' | grep -E '^\s*(pub(\([a-z]+\))? )?wheel:'; then fail "one pool clock"; fi

# One run queue: the pool's workers share one FIFO under one lock and park
# on it in the critical section that found it empty, so the per-worker
# queues, the global injector and the parking lot's wake tokens stay
# deleted (the model tests' seeded-bug twins may still name them).
if git grep --untracked -nE '\binjector\b|IdleLot|\btokens?\b|locals' -- crates/runtime/src ':!crates/runtime/src/model_tests.rs'; then fail "one run queue"; fi

# One frame declaration: each socket frame's kind byte and fields are
# declared once — `NetMsg`'s by its `wire_enum!` in crates/core/src/msg.rs,
# the fabric's control frames by `WireMsg`'s one `Wire` impl — so the
# codec's per-kind constant module, payload writer and payload reader stay
# deleted.
if git grep -nE 'fn put_payload|fn decode_payload|mod kind \{' -- 'crates/*.rs'; then fail "one frame declaration"; fi

# One operator contract: `Operator` holds what every operator has —
# process, tick, checkpoint, restore and the snapshot codec — and the
# fragment reaches its SUnions and SOutputs through `<dyn Operator>::
# downcast_ref`/`downcast_mut`, so the per-kind downcast hooks and the
# diagnostic kind name on every operator stay deleted (a spec's
# `kind_name()` names the kind).
if git grep -nE 'fn as_(sunion|soutput)' -- '*.rs'; then fail "one operator contract"; fi
if git grep -n "fn name(&self) -> &'static str" -- crates/ops/src; then fail "one operator contract"; fi

echo "lints: ok"
