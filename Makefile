# Local invocations matching the CI jobs in .github/workflows/ci.yml —
# `make lint test` before pushing reproduces what CI will run.

.PHONY: all build test lint fmt doc bench bench-run bench-self-test scale scale-sharded sim scenarios tcp-demo tcp-demo-flap tcp-demo-hostile clean

all: lint build test doc

build:
	cargo build --release --workspace --all-targets

test:
	cargo test -q --workspace --no-fail-fast

lint:
	cargo fmt --all -- --check
	cargo clippy --workspace --all-targets -- -D warnings

fmt:
	cargo fmt --all

# The API docs must stay warning-free (CI denies rustdoc warnings).
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# CI only checks that benches compile; `make bench-run` executes them.
bench:
	cargo bench --workspace --no-run

bench-run:
	cargo bench --workspace

# The repository benchmark's contract check (perfbench/run.py): every
# workload at a tiny size, every metric present with its unit and outputs
# correct, and a corrupted result rejected. About 15 s on a 2-core host.
bench-self-test:
	python3 perfbench/run.py --self-test

# The 10k-volunteer reactor demonstration: one master, a fixed thread pool,
# results seq-checked. CI runs the same example at 1k (its default).
scale:
	SCALE_VOLUNTEERS=10000 cargo run --release --example scale_smoke

# Same 10k-volunteer run with dispatch sharded over four lender instances
# (four locks, four input pumps), under the same wall-clock guard.
scale-sharded:
	SCALE_VOLUNTEERS=10000 SCALE_SHARDS=4 cargo run --release --example scale_smoke

# The deterministic fleet simulator at 10k volunteers: the same reactor
# stack on a virtual clock, run twice from one seed and the canonical event
# traces compared byte for byte. Same target CI runs.
sim:
	cargo run --release --example sim_determinism

# The golden-trace regression suite: every scenarios/*.toml script runs
# twice on the virtual clock, is byte-compared against itself, checked
# against its [expect] table, and diffed against the committed trace in
# scenarios/golden/. After an intentional behaviour change, re-bless with
# `make scenarios BLESS=1` and commit the golden diff for review.
scenarios:
	BLESS=$(BLESS) cargo run --release --example scenario_run

# The fleet across OS processes: one master listening on localhost TCP, a
# 64-volunteer fleet split over one process that crashes abruptly mid-run
# (exit 2 — expected) and one that survives. The master must detect the
# crash through the socket, re-lend, and still produce complete in-order
# output within the budget — while TCP_THREAD_CENSUS=1 asserts its whole
# transport side runs on poller_threads + 1 OS threads, not 2 per volunteer.
tcp-demo:
	cargo build --release --example tcp_master --example tcp_volunteer
	rm -f target/tcp-demo.addr
	PANDO_TCP_ADDR_FILE=target/tcp-demo.addr TCP_TASKS=2000 TCP_BUDGET_SECS=120 \
		TCP_MIN_VOLUNTEERS=64 TCP_THREAD_CENSUS=1 \
		target/release/examples/tcp_master & master=$$!; \
	PANDO_TCP_ADDR_FILE=target/tcp-demo.addr TCP_WORKERS=16 \
		TCP_NAME_PREFIX=doomed TCP_CRASH_AFTER=200 \
		target/release/examples/tcp_volunteer & crasher=$$!; \
	PANDO_TCP_ADDR_FILE=target/tcp-demo.addr TCP_WORKERS=48 \
		TCP_NAME_PREFIX=steady \
		target/release/examples/tcp_volunteer & steady=$$!; \
	wait $$master; status=$$?; \
	wait $$crasher $$steady 2>/dev/null; \
	rm -f target/tcp-demo.addr; \
	exit $$status

# The flapping-volunteer variant: one master and a single 32-volunteer
# process that joins through resumable sessions and abruptly severs every
# socket mid-run (TCP_DROP_AFTER), then redials with backoff and resumes
# under its old session tokens. The master must ride the flap out inside
# its reconnect_grace window: all 32 sessions resumed (TCP_MIN_RESUMED),
# zero crash re-lends (TCP_EXPECT_CRASHED=0), output complete and in order.
tcp-demo-flap:
	cargo build --release --example tcp_master --example tcp_volunteer
	rm -f target/tcp-demo-flap.addr
	PANDO_TCP_ADDR_FILE=target/tcp-demo-flap.addr TCP_TASKS=2000 TCP_BUDGET_SECS=120 \
		TCP_MIN_VOLUNTEERS=32 TCP_THREAD_CENSUS=1 \
		TCP_EXPECT_CRASHED=0 TCP_MIN_RESUMED=32 \
		target/release/examples/tcp_master & master=$$!; \
	PANDO_TCP_ADDR_FILE=target/tcp-demo-flap.addr TCP_WORKERS=32 \
		TCP_NAME_PREFIX=flappy TCP_DROP_AFTER=300 \
		target/release/examples/tcp_volunteer & flappy=$$!; \
	wait $$master; status=$$?; \
	wait $$flappy 2>/dev/null; \
	rm -f target/tcp-demo-flap.addr; \
	exit $$status

# The hostile-client variant of tcp-demo: the surviving volunteer process
# first opens 8 connections that never send a byte and holds them open for
# the whole run (TCP_SILENT), then dials its workers. The master's
# non-blocking handshake must still see all 64 volunteers inside its 30 s
# join wait, with complete in-order output; a handshake that blocked on
# each silent socket would stall every join behind it.
tcp-demo-hostile:
	cargo build --release --example tcp_master --example tcp_volunteer
	rm -f target/tcp-demo-hostile.addr
	PANDO_TCP_ADDR_FILE=target/tcp-demo-hostile.addr TCP_TASKS=2000 TCP_BUDGET_SECS=120 \
		TCP_MIN_VOLUNTEERS=64 TCP_THREAD_CENSUS=1 \
		target/release/examples/tcp_master & master=$$!; \
	PANDO_TCP_ADDR_FILE=target/tcp-demo-hostile.addr TCP_WORKERS=16 \
		TCP_NAME_PREFIX=doomed TCP_CRASH_AFTER=200 \
		target/release/examples/tcp_volunteer & crasher=$$!; \
	PANDO_TCP_ADDR_FILE=target/tcp-demo-hostile.addr TCP_WORKERS=48 \
		TCP_NAME_PREFIX=steady TCP_SILENT=8 \
		target/release/examples/tcp_volunteer & steady=$$!; \
	wait $$master; status=$$?; \
	wait $$crasher $$steady 2>/dev/null; \
	rm -f target/tcp-demo-hostile.addr; \
	exit $$status

clean:
	cargo clean
