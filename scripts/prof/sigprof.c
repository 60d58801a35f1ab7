/*
 * sigprof.so — an LD_PRELOAD sampling profiler for one x86-64 Linux
 * process, for binaries built with frame pointers.
 *
 * A profiling timer (ITIMER_PROF, process CPU time) raises SIGPROF; the
 * handler records the interrupted PC and walks the frame-pointer chain
 * from the signal context. libc is built without frame pointers, so
 * when the PC is outside the program's own text the handler first scans
 * the stack upward from SP for the first word that points into that
 * text — the return address into the program — and then follows RBP
 * if libc left it alone, or else the first frame record it can
 * recognise further up (a heuristic: stale stack words can fool it). At exit the samples and a
 * copy of /proc/self/maps go to $SIGPROF_OUT (default sigprof.out), one
 * sample a line, leaf first, hex; scripts/prof/report.py resolves them.
 *
 * The rate is 250 Hz, the kernel's tick.
 *
 * Only the main thread's stack is walked (its bounds are read once from
 * /proc/self/maps); a sample taken on another thread keeps its PC only.
 * The handler allocates nothing and calls nothing but itself.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define HZ 250
#define MAX_DEPTH 64
#define SCAN_WORDS 512
#define BUF_WORDS (8u << 20) /* 64 MiB of address space, touched as filled */

static uint64_t *buf;
static volatile size_t used;
static volatile uint64_t dropped;
static uintptr_t text_lo, text_hi;   /* the program's executable mappings */
static uintptr_t stack_lo, stack_hi; /* the main thread's stack */

static int in_text(uintptr_t a) { return a >= text_lo && a < text_hi; }

static void on_prof(int sig, siginfo_t *si, void *ucv) {
    (void)sig;
    (void)si;
    ucontext_t *uc = ucv;
    uintptr_t pc = uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t fp = uc->uc_mcontext.gregs[REG_RBP];
    uintptr_t sp = uc->uc_mcontext.gregs[REG_RSP];
    if (used + MAX_DEPTH + 1 > BUF_WORDS) {
        dropped++;
        return;
    }
    uint64_t *rec = buf + used;
    size_t n = 0;
    rec[++n] = pc;
    if (sp >= stack_lo && sp < stack_hi) {
        uintptr_t floor = sp;
        if (!in_text(pc)) {
            uintptr_t *w = (uintptr_t *)(sp & ~(uintptr_t)7);
            uintptr_t *end = w + SCAN_WORDS;
            if ((uintptr_t)end > stack_hi)
                end = (uintptr_t *)stack_hi;
            for (; w < end && !in_text(*w); w++)
                ;
            if (w < end) {
                rec[++n] = *w++;
                floor = (uintptr_t)w;
            }
            /* malloc and friends use RBP as a scratch register. When it
             * is no frame address, take the first thing above that
             * looks like a frame record: a higher stack address
             * followed by a return address into the program. */
            if (fp < floor || fp + 16 > stack_hi || (fp & 7) != 0) {
                for (; w + 1 < end; w++) {
                    if (w[0] > (uintptr_t)w && w[0] < stack_hi && (w[0] & 7) == 0 && in_text(w[1])) {
                        fp = (uintptr_t)w;
                        break;
                    }
                }
            }
        }
        /* Each frame must sit above the last (a leaf that has just
         * pushed RBP has it equal to SP): a clobbered RBP ends the walk
         * instead of looping or leaving the stack. */
        while (n < MAX_DEPTH && fp >= floor && fp + 16 <= stack_hi && (fp & 7) == 0) {
            uintptr_t ret = ((uintptr_t *)fp)[1];
            if (ret < 4096)
                break;
            if (rec[n] != ret)
                rec[++n] = ret;
            floor = fp + 16;
            fp = ((uintptr_t *)fp)[0];
        }
    }
    rec[0] = n;
    used += n + 1;
}

static void read_maps(void) {
    char exe[4096];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[len > 0 ? len : 0] = 0;
    FILE *f = fopen("/proc/self/maps", "r");
    if (!f)
        return;
    char line[8192];
    text_lo = UINTPTR_MAX;
    while (fgets(line, sizeof line, f)) {
        unsigned long lo, hi;
        char perms[8];
        if (sscanf(line, "%lx-%lx %7s", &lo, &hi, perms) != 3)
            continue;
        if (strstr(line, "[stack]")) {
            /* The mapping grows downward on demand: take its top and
             * the limit it may grow to, not where it starts today. */
            struct rlimit rl;
            uintptr_t room = 8u << 20;
            if (getrlimit(RLIMIT_STACK, &rl) == 0 && rl.rlim_cur != RLIM_INFINITY)
                room = rl.rlim_cur;
            stack_hi = hi;
            stack_lo = hi > room ? hi - room : 0;
        } else if (perms[2] == 'x' && len > 0 && strstr(line, exe)) {
            if (lo < text_lo)
                text_lo = lo;
            if (hi > text_hi)
                text_hi = hi;
        }
    }
    fclose(f);
}

__attribute__((constructor)) static void start(void) {
    buf = mmap(NULL, BUF_WORDS * sizeof *buf, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (buf == MAP_FAILED)
        return;
    read_maps();
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it;
    it.it_interval.tv_sec = 0;
    it.it_interval.tv_usec = 1000000 / HZ;
    it.it_value = it.it_interval;
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    if (!buf || buf == MAP_FAILED)
        return;
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.out", "w");
    if (!out)
        return;
    for (size_t i = 0; i < used; i += buf[i] + 1) {
        for (uint64_t k = 1; k <= buf[i]; k++)
            fprintf(out, k == 1 ? "%lx" : " %lx", (unsigned long)buf[i + k]);
        fputc('\n', out);
    }
    fprintf(out, "# dropped %lu\n# maps\n", (unsigned long)dropped);
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[8192];
        while (fgets(line, sizeof line, maps))
            fputs(line, out);
        fclose(maps);
    }
    fclose(out);
}
