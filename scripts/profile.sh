#!/usr/bin/env bash
# Sampling profile of one benchmark workload, for development work; the
# PR gate (check.sh) does not run it. It needs only cc, readelf and
# addr2line, so it works on hosts without perf or gdb:
#
#   1. An LD_PRELOAD shim, compiled by this script, samples the interrupted
#      instruction pointer every 200 µs of process CPU time
#      (setitimer(ITIMER_PROF); the kernel's tick may coarsen that) and
#      writes the samples and /proc/self/maps at exit.
#   2. The benchmark is built with line tables into target/profile/ (its
#      own release profile carries no debug info).
#   3. Each sample is mapped to an ELF virtual address of the executable
#      through its LOAD segments: the text segment's vaddr is not its
#      file offset, so raw file offsets would blame unrelated functions.
#   4. addr2line symbolizes the addresses, inlined frames included.
#   5. The shim also records the process's page faults and context
#      switches (getrusage at exit): time the kernel spends mapping fresh
#      memory shows up in the samples only as anonymous libc time.
#
# Usage: scripts/profile.sh <workload> [seconds]      (default 10 s)
#   e.g. scripts/profile.sh fleet-1024 10
#
# Prints the sample count with the minor/major page faults and the
# voluntary/involuntary context switches of the sampled process, then three
# tables, each entry with its share of all samples: physical
# functions (the function a sample's code was compiled into), the
# innermost inlined frames, and source lines (the innermost frame whose
# file lies in this workspace, as file:line, so an inlined function splits
# into its arithmetic, its loop control and its set-up; samples with no
# such frame count under "(no workspace line)" and their physical
# function). Samples outside the executable count under their library's
# name, e.g. [libm.so.6].
set -euo pipefail
cd "$(dirname "$0")/.."

workload=${1:?usage: scripts/profile.sh <workload> [seconds]}
seconds=${2:-10}
out=$PWD/target/profile
mkdir -p "$out"
rm -f "$out"/samples.* "$out"/maps.* "$out"/rusage.*

cat > "$out/shim.c" <<'EOF'
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 20)
static unsigned long samples[MAX_SAMPLES];
static unsigned long taken;

static void on_prof(int sig, siginfo_t *info, void *uc) {
    (void)sig, (void)info;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES) samples[i] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 200}, {0, 200}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[4096], buf[4096];
    snprintf(path, sizeof path, "%s/samples.%d", OUT_DIR, (int)getpid());
    FILE *f = fopen(path, "w");
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned long i = 0; f && i < n; i++) fprintf(f, "%lx\n", samples[i]);
    if (f) fclose(f);
    snprintf(path, sizeof path, "%s/maps.%d", OUT_DIR, (int)getpid());
    FILE *in = fopen("/proc/self/maps", "r"), *copy = fopen(path, "w");
    for (size_t k; in && copy && (k = fread(buf, 1, sizeof buf, in)) > 0;) fwrite(buf, 1, k, copy);
    if (in) fclose(in);
    if (copy) fclose(copy);
    struct rusage ru;
    snprintf(path, sizeof path, "%s/rusage.%d", OUT_DIR, (int)getpid());
    FILE *r = fopen(path, "w");
    if (r && getrusage(RUSAGE_SELF, &ru) == 0)
        fprintf(r, "%ld minor and %ld major page faults, %ld voluntary and %ld involuntary "
                   "context switches\n", ru.ru_minflt, ru.ru_majflt, ru.ru_nvcsw, ru.ru_nivcsw);
    if (r) fclose(r);
}
EOF
cc -O2 -shared -fPIC -DOUT_DIR="\"$out\"" -o "$out/libprofshim.so" "$out/shim.c"

# Building the benchmark package rewrites its lock file; put it back.
trap 'git checkout --quiet -- examples/benchmark/Cargo.lock 2>/dev/null || true' EXIT
CARGO_PROFILE_RELEASE_DEBUG=true CARGO_TARGET_DIR=$out \
    cargo build --release --quiet --offline --manifest-path examples/benchmark/Cargo.toml
bin=$out/release/benchmark

LD_PRELOAD=$out/libprofshim.so "$bin" --workload "$workload" --seconds "$seconds" --trace 0 \
    >/dev/null
# The benchmark process wrote the most samples (its calibration child
# runs briefly).
samples=$(ls -S "$out"/samples.* | head -n 1)
maps=$out/maps.${samples##*.}
rusage=$out/rusage.${samples##*.}

# Unique sample addresses with counts, mapped to "<count> 0x<vaddr>" for
# the executable and "<count> [<library>]" elsewhere.
readelf -lW "$bin" | awk '$1 == "LOAD" { print $2, $3, $5 }' >"$out/segments"
sort "$samples" | uniq -c | awk -v bin="$bin" -v segs="$out/segments" -v maps="$maps" '
    function hex(s,    i, n) {
        sub(/^0x/, "", s)
        n = 0
        for (i = 1; i <= length(s); i++) n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
        return n
    }
    BEGIN {
        while ((getline line < segs) > 0) {
            split(line, f, " ")
            ns++; seg_off[ns] = hex(f[1]); seg_va[ns] = hex(f[2]); seg_sz[ns] = hex(f[3])
        }
        while ((getline line < maps) > 0) {
            nf = split(line, f, " ")
            split(f[1], range, "-")
            nm++; lo[nm] = hex(range[1]); hi[nm] = hex(range[2]); off[nm] = hex(f[3])
            path[nm] = nf >= 6 ? f[6] : "anon"
        }
    }
    {
        a = hex($2)
        for (i = 1; i <= nm && !(a >= lo[i] && a < hi[i]); i++) {}
        if (i > nm) { print $1, "[unmapped]"; next }
        if (path[i] != bin) { p = path[i]; sub(/.*\//, "", p); print $1, "[" p "]"; next }
        o = a - lo[i] + off[i]
        for (j = 1; j <= ns && !(o >= seg_off[j] && o < seg_off[j] + seg_sz[j]); j++) {}
        if (j > ns) { print $1, "[unmapped]"; next }
        printf "%d 0x%x\n", $1, o - seg_off[j] + seg_va[j]
    }' >"$out/mapped"

# Symbolize the executable's addresses: for each, addr2line -i prints
# (function, file:line) pairs from the innermost inlined frame out to the
# physical function. The source-line table takes the innermost pair whose
# file lies in this workspace, so a function inlined into its caller
# still splits into its own lines.
grep ' 0x' "$out/mapped" | cut -d' ' -f2 | addr2line -e "$bin" -a -f -i -C >"$out/symbols"
awk -v symbols="$out/symbols" -v physical="$out/physical" -v inner="$out/inner" \
    -v lines="$out/lines" -v root="$PWD/" '
    BEGIN {
        while ((getline line < symbols) > 0) {
            if (line ~ /^0x[0-9a-f]+$/) { k = 0; n++; continue }
            if (k++ % 2 == 0) { if (!(n in first)) first[n] = line; last[n] = line; continue }
            if (!(n in src) && index(line, root) == 1) {
                src[n] = substr(line, length(root) + 1)
                sub(/ \(discriminator [0-9]+\)$/, "", src[n])
            }
        }
    }
    { total += $1 }
    $2 ~ /^\[/ { phys[$2] += $1; inl[$2] += $1; at[$2] += $1; next }
    {
        m++; phys[last[m]] += $1; inl[first[m]] += $1
        at[m in src ? src[m] : "(no workspace line) " last[m]] += $1
    }
    END {
        for (f in phys) printf "%6.2f%%  %s\n", 100 * phys[f] / total, f > physical
        for (f in inl) printf "%6.2f%%  %s\n", 100 * inl[f] / total, f > inner
        for (f in at) printf "%6.2f%%  %s\n", 100 * at[f] / total, f > lines
        print total > (physical ".total")
    }' "$out/mapped"

echo "$workload: $(cat "$out/physical.total") samples over ${seconds} s (target/profile/)"
echo "$(cat "$rusage" 2>/dev/null || echo 'no resource usage recorded')"
echo
echo "Top physical functions:"
sort -rn "$out/physical" | head -n 25
echo
echo "Top innermost inlined frames:"
sort -rn "$out/inner" | head -n 25
echo
echo "Top source lines (innermost frame inside the workspace):"
sort -rn "$out/lines" | head -n 40
