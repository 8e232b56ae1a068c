// An allocation counter that sees every thread, for a sandbox with no perf
// or valgrind. LD_PRELOAD it: malloc, calloc, realloc and free are
// interposed, forwarded to glibc's __libc_* entry points and counted with
// relaxed atomics, and at exit one line goes to stderr:
//
//   count: malloc M calloc C realloc R free F
//
// With $SAMP_OUT set, every EVERY-th (64th) allocating call also records
// its frame-pointer stack in samp.c's dump format, headed by the
// interposer itself, so `report.py --callers malloc` (or calloc, realloc)
// names the allocating sites. As for samp.c, the profiled binary
// must keep frame pointers. Aligned allocations (posix_memalign,
// aligned_alloc) are not counted. x86-64 Linux only.
#define _GNU_SOURCE
#include <stdio.h>
#include <stdlib.h>
#include <sys/uio.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void __libc_free(void *);

enum { MALLOC, CALLOC, REALLOC, FREE, KINDS };
enum { DEPTH = 48, WORDS = 1 << 22 }; // 32 MB of address space, touched as used
enum { EVERY = 64 };                  // allocating calls per recorded stack
static unsigned long calls[KINDS];
static unsigned long buf[WORDS];
static unsigned long used; // words claimed; stacks are [depth, pc, ret, ret, ...]
static int sampling; // 0: no stacks (no $SAMP_OUT, not started yet, or dumping)
static pid_t pid;

// Two words at `fp`, or failure — never a fault, whatever garbage rbp held.
static int peek(unsigned long fp, unsigned long out[2]) {
    struct iovec to = {out, 16}, from = {(void *)fp, 16};
    return process_vm_readv(pid, &to, 1, &from, 1, 0) == 16;
}

// Count one call of `kind`; every EVERY-th allocating one records the
// stack above the interposer `self` (inlined into it, so the frame walked
// first is the interposer's own).
static inline __attribute__((always_inline)) void count(int kind, void *self) {
    unsigned long nth = __atomic_fetch_add(&calls[kind], 1, __ATOMIC_RELAXED);
    if (kind == FREE || nth % EVERY || !__atomic_load_n(&sampling, __ATOMIC_RELAXED)) return;
    unsigned long stack[DEPTH], depth = 0, frame[2];
    unsigned long fp = (unsigned long)__builtin_frame_address(0), sp = (unsigned long)&depth;
    stack[depth++] = (unsigned long)self;
    // A frame-pointer chain only climbs: anything else is not one.
    while (depth < DEPTH && fp >= sp && fp % 8 == 0 && peek(fp, frame) && frame[1] > 4096) {
        stack[depth++] = frame[1];
        if (frame[0] <= fp) break;
        fp = frame[0];
    }
    unsigned long at = __atomic_fetch_add(&used, depth + 1, __ATOMIC_RELAXED);
    if (at + depth + 1 > WORDS) return; // full: the dump stops at the last whole stack
    for (unsigned long i = 0; i < depth; i++) buf[at + 1 + i] = stack[i];
    __atomic_store_n(&buf[at], depth, __ATOMIC_RELEASE);
}

void *malloc(size_t size) {
    count(MALLOC, (void *)malloc);
    return __libc_malloc(size);
}

void *calloc(size_t n, size_t size) {
    count(CALLOC, (void *)calloc);
    return __libc_calloc(n, size);
}

void *realloc(void *p, size_t size) {
    count(REALLOC, (void *)realloc);
    return __libc_realloc(p, size);
}

void free(void *p) {
    count(FREE, NULL);
    __libc_free(p);
}

__attribute__((constructor)) static void start(void) {
    pid = getpid();
    unsetenv("LD_PRELOAD"); // the named binary only, not what it spawns
    if (getenv("SAMP_OUT")) __atomic_store_n(&sampling, 1, __ATOMIC_RELAXED);
}

__attribute__((destructor)) static void dump(void) {
    __atomic_store_n(&sampling, 0, __ATOMIC_RELAXED); // the dump's own allocations are not sampled
    unsigned long n[KINDS];
    for (int k = 0; k < KINDS; k++) n[k] = __atomic_load_n(&calls[k], __ATOMIC_RELAXED);
    dprintf(2, "count: malloc %lu calloc %lu realloc %lu free %lu\n", n[MALLOC], n[CALLOC], n[REALLOC], n[FREE]);
    const char *path = getenv("SAMP_OUT");
    if (!path) return;
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    for (unsigned long at = 0; at < used && at < WORDS && buf[at] && at + buf[at] < WORDS; at += buf[at] + 1) {
        for (unsigned long i = 1; i <= buf[at]; i++) fprintf(out, "%lx ", buf[at + i]);
        fputc('\n', out);
    }
    fputs("MAPS\n", out);
    for (int c; (c = fgetc(maps)) != EOF;) fputc(c, out);
    fclose(out);
}
