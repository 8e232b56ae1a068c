// A sampling profiler that sees every thread, for a sandbox with no perf.
// LD_PRELOAD it: a CPU-time timer (ITIMER_PROF, process-wide, so the signal
// lands on whichever thread is burning the CPU) fires SIGPROF every 4 ms of
// CPU; the handler records RIP and walks the frame-pointer chain into a
// preallocated buffer; at exit the buffer and /proc/self/maps go to
// $SAMP_OUT (default samp.out) for report.py. The profiled binary must be
// built with -C force-frame-pointers=yes; code without them (libc, the
// prebuilt std) just ends the walk early. x86-64 Linux only.
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

enum { DEPTH = 48, WORDS = 1 << 23 }; // 64 MB of address space, touched as used
static unsigned long buf[WORDS];
static unsigned long used; // words claimed; samples are [depth, pc, ret, ret, ...]
static pid_t pid;

// Two words at `fp`, or failure — never a fault, whatever garbage rbp held.
static int peek(unsigned long fp, unsigned long out[2]) {
    struct iovec to = {out, 16}, from = {(void *)fp, 16};
    return process_vm_readv(pid, &to, 1, &from, 1, 0) == 16;
}

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    greg_t *regs = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    unsigned long stack[DEPTH], depth = 0, frame[2];
    unsigned long fp = regs[REG_RBP], sp = regs[REG_RSP];
    stack[depth++] = regs[REG_RIP];
    // A frame-pointer chain only climbs: anything else is not one.
    while (depth < DEPTH && fp >= sp && fp % 8 == 0 && peek(fp, frame) && frame[1] > 4096) {
        stack[depth++] = frame[1];
        if (frame[0] <= fp) break;
        fp = frame[0];
    }
    unsigned long at = __atomic_fetch_add(&used, depth + 1, __ATOMIC_RELAXED);
    if (at + depth + 1 > WORDS) return; // full: the dump stops at the last whole sample
    for (unsigned long i = 0; i < depth; i++) buf[at + 1 + i] = stack[i];
    __atomic_store_n(&buf[at], depth, __ATOMIC_RELEASE);
}

static void arm(long usec) {
    struct itimerval every = {{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    pid = getpid();
    unsetenv("LD_PRELOAD"); // the named binary only, not what it spawns
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    arm(4000);
}

__attribute__((destructor)) static void dump(void) {
    arm(0);
    const char *path = getenv("SAMP_OUT");
    FILE *out = fopen(path ? path : "samp.out", "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    for (unsigned long at = 0; at < used && at < WORDS && buf[at] && at + buf[at] < WORDS; at += buf[at] + 1) {
        for (unsigned long i = 1; i <= buf[at]; i++) fprintf(out, "%lx ", buf[at + i]);
        fputc('\n', out);
    }
    fputs("MAPS\n", out);
    for (int c; (c = fgetc(maps)) != EOF;) fputc(c, out);
    fclose(out);
}
