#!/usr/bin/env bash
# Benchmark smoke baseline: proves the perf targets still compile and records
# one fast criterion group as JSON for BENCH_*.json trajectory tracking.
#
# Usage: scripts/bench_smoke.sh [output.json]   (default: BENCH_smoke.json)
set -euo pipefail
cd "$(dirname "$0")/.."

# Resolve to an absolute path: cargo runs benches from the bench crate's
# directory, so a relative BROWSIX_BENCH_JSON would land there instead.
out="${1:-BENCH_smoke.json}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac

echo "== compiling all bench targets (cargo bench --no-run) =="
cargo bench --no-run

echo "== running the 'filesystem' criterion group =="
rm -f "$out"
BROWSIX_BENCH_JSON="$out" cargo bench -p browsix-bench --bench fs -- filesystem

echo "== running the 'fs_handles' criterion group =="
BROWSIX_BENCH_JSON="$out" cargo bench -p browsix-bench --bench fs -- fs_handles

echo "== running the 'syscall_batching' criterion group =="
BROWSIX_BENCH_JSON="$out" cargo bench -p browsix-bench --bench syscall_batching

echo "== running the 'readiness' criterion group =="
BROWSIX_BENCH_JSON="$out" cargo bench -p browsix-bench --bench readiness -- readiness

echo "== running the 'rings' criterion group =="
BROWSIX_BENCH_JSON="$out" cargo bench -p browsix-bench --bench rings -- rings

echo "== running the 'vm' criterion group =="
BROWSIX_BENCH_JSON="$out" cargo bench -p browsix-bench --bench vm -- vm

echo "== running the 'sharding' criterion group =="
BROWSIX_BENCH_JSON="$out" cargo bench -p browsix-bench --bench sharding -- sharding

echo "== baseline written to $out =="
cat "$out"

# Guard the headline result of the batched ABI: one batched submission must
# beat per-call round trips on the pipe/write-heavy workload.
python3 - "$out" <<'EOF'
import json, sys
means = {}
with open(sys.argv[1]) as fh:
    for line in fh:
        row = json.loads(line)
        means[row["id"]] = row["mean_ns"]
for convention in ("async", "sync"):
    batched = means.get(f"syscall_batching/{convention}_batched")
    per_call = means.get(f"syscall_batching/{convention}_per_call")
    if batched is None or per_call is None:
        sys.exit(f"missing syscall_batching results for {convention}")
    if batched >= per_call:
        sys.exit(f"{convention}: batched ({batched} ns) did not beat per-call ({per_call} ns)")
    print(f"{convention}: batched beats per-call by {per_call / batched:.1f}x")

# Guard the handle-based VFS: descriptor I/O through an open-file handle must
# beat legacy path-per-operation dispatch on the 1 MiB sequential read.
handle = means.get("fs_handles/handle_seq_read_1m")
per_op = means.get("fs_handles/path_per_op_seq_read_1m")
if handle is None or per_op is None:
    sys.exit("missing fs_handles results")
if handle >= per_op:
    sys.exit(f"fs_handles: handle I/O ({handle} ns) did not beat path-per-op ({per_op} ns)")
print(f"fs_handles: handle I/O beats path-per-op by {per_op / handle:.1f}x")

# Guard the wait-queue design: delivering one wakeup through per-resource
# wait queues must beat the old retry-everything rescan by at least 5x with
# 256 blocked waiters, and its cost must not grow with the waiter count.
wake_1 = means.get("readiness/wake_one_1")
wake_256 = means.get("readiness/wake_one_256")
rescan_256 = means.get("readiness/rescan_256")
if wake_1 is None or wake_256 is None or rescan_256 is None:
    sys.exit("missing readiness results")
if rescan_256 < 5 * wake_256:
    sys.exit(
        f"readiness: wait-queue wakeup ({wake_256} ns) is not 5x faster than "
        f"the rescan baseline at 256 waiters ({rescan_256} ns)"
    )
print(f"readiness: wait-queue wakeup beats the 256-waiter rescan by {rescan_256 / wake_256:.1f}x")
# Independence: the cost of one wakeup must not grow with the number of
# *other* blocked waiters (3x leaves room for measurement noise; the real
# ratio hovers around 1x, while a rescan-shaped regression lands near 30x).
if wake_256 > 3 * wake_1:
    sys.exit(
        f"readiness: wakeup cost grew with waiter count "
        f"({wake_1} ns at 1 waiter vs {wake_256} ns at 256)"
    )
print(f"readiness: wakeup cost at 256 waiters is {wake_256 / wake_1:.2f}x the 1-waiter cost (independence)")

# Guard the zero-copy data path: httpd serving the 32 KiB payload over
# sendfile (page cache -> socket inside the kernel) must beat the classic
# read-then-write copy loop.
sendfile = means.get("readiness/httpd_payload_sendfile")
copy = means.get("readiness/httpd_payload_copy")
if sendfile is None or copy is None:
    sys.exit("missing httpd payload results")
if sendfile >= copy:
    sys.exit(f"sendfile: zero-copy serving ({sendfile} ns) did not beat the copy path ({copy} ns)")
print(f"sendfile: zero-copy serving beats the copy path by {copy / sendfile:.2f}x")

# Guard the virtual-memory subsystem: COW fork of a fully-resident 1 MiB
# address space must beat the old image-copy fork by at least 10x (fork is
# O(regions), not O(image bytes)), and mapping cached file pages must beat
# read() copies of the same megabyte.
cow = means.get("vm/cow_fork_1m")
image_copy = means.get("vm/image_copy_fork_1m")
mmap_read = means.get("vm/mmap_file_1m")
read_copy = means.get("vm/read_copy_1m")
if None in (cow, image_copy, mmap_read, read_copy):
    sys.exit("missing vm results")
if image_copy < 10 * cow:
    sys.exit(f"vm: COW fork ({cow} ns) is not 10x faster than image copy ({image_copy} ns)")
print(f"vm: COW fork beats the 1 MiB image-copy fork by {image_copy / cow:.1f}x")
if mmap_read >= read_copy:
    sys.exit(f"vm: mmap of cached pages ({mmap_read} ns) did not beat read() copies ({read_copy} ns)")
print(f"vm: mmap page references beat read() copies by {read_copy / mmap_read:.1f}x")

# Guard the sharded kernel: the fixed 16-request httpd workload must run at
# least 2.5x faster (i.e. >= 2.5x the requests/second) on a 4-shard kernel
# than on the classic single event loop.  Near-linear is ~4x; 2.5x leaves
# room for cross-shard protocol overhead and scheduler noise.
one_shard = means.get("sharding/httpd_rps_1shard")
four_shard = means.get("sharding/httpd_rps_4shard")
if one_shard is None or four_shard is None:
    sys.exit("missing sharding results")
if one_shard < 2.5 * four_shard:
    sys.exit(
        f"sharding: 4-shard httpd throughput is only {one_shard / four_shard:.2f}x "
        f"the 1-shard kernel ({four_shard} ns vs {one_shard} ns per iteration); need >= 2.5x"
    )
print(f"sharding: 4 shards serve the httpd workload {one_shard / four_shard:.2f}x faster than 1 shard")
EOF
