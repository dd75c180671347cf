package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's timings are reported at a fixed reference speed of the
// host. A shared host's speed drifts by a factor of two and more over
// minutes, as other tenants come and go on the same physical cores and
// memory; wall-clock times taken minutes apart then measure the
// neighbours, not the program. So the benchmark interleaves a fixed
// calibration kernel with the work it measures and scales every timing by
// calNominalMs / (the kernel's median time around it): the result is the
// time the work would have taken on a host running the kernel in
// calNominalMs. The kernel is the benchmark's own code, so a change to
// the program cannot move it. Raw times are kept in the results file and
// the host's speed is printed with every run.
//
// Each sample records the kernel's wall-clock time and its processor time.
// The hypervisor also takes the processors away for bursts of a few
// hundred milliseconds (steal time), which a sample between two jobs
// cannot see. Processor time leaves steal out, so batch jobs are timed by
// the process's processor time and scaled by the kernel's; the serve
// rounds, whose latencies are wall-clock by nature, by wall clock both.

// calNominalMs is the kernel's time on the reference host: a quiet 2-vCPU
// Xeon VM at 2.1 GHz.
const calNominalMs = 20.0

// calWindow is how many calibration samples on each side of a timed piece
// of work its scale factor is taken from.
const calWindow = 3

// calSink keeps the kernel's results alive.
var calSink atomic.Uint64

// calKernel is a fixed mix of the work the pipeline's hot loops do: a
// switch-dispatched loop over pseudo-random operations that load and store
// a 4 MiB memory image, insert into and probe a 64K-slot hash table, and
// chase links through a 128 KiB table. Its working set is mapped for the
// one call and unmapped after it, outside the Go heap, so that it neither
// changes the garbage collector's pacing of the work measured nor stays
// resident while that work runs.
func calKernel() uint64 {
	const memWords, slots, links = 1 << 20, 1 << 16, 1 << 15
	buf, err := syscall.Mmap(-1, 0, 4*(memWords+2*slots+links),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("perfbench: calibration: " + err.Error())
	}
	defer syscall.Munmap(buf)
	words := unsafe.Slice((*uint32)(unsafe.Pointer(&buf[0])), len(buf)/4)
	mem, keys, vals, next := words[:memWords], words[memWords:][:slots], words[memWords+slots:][:slots], words[memWords+2*slots:]
	// slot finds k's slot by linear probing; keys hold k+1, so 0 is free.
	slot := func(k uint32) uint32 {
		h := (k * 2654435761) >> 16
		for keys[h] != 0 && keys[h] != k+1 {
			h = (h + 1) & (slots - 1)
		}
		return h
	}
	x := uint32(12345)
	var acc uint64
	cur := uint32(0)
	for i := 0; i < 400_000; i++ {
		x = x*1103515245 + 12345
		a := x >> 8
		switch x >> 29 {
		case 0, 1:
			mem[a&(memWords-1)] += x
		case 2, 3:
			acc += uint64(mem[a&(memWords-1)] ^ mem[(a*31)&(memWords-1)])
		case 4:
			h := slot(a & (slots/2 - 1))
			keys[h] = a&(slots/2-1) + 1
			vals[h] += x
		case 5:
			acc += uint64(vals[slot((a*7)&(slots/2-1))])
		case 6:
			next[a&(links-1)] = cur
			cur = a & (links - 1)
		default:
			for n := 0; n < 8; n++ {
				cur = next[cur]
			}
			acc += uint64(cur)
		}
	}
	return acc
}

// calibrator collects calibration samples in the order they are taken.
type calibrator struct {
	wall []float64 // ms, mean over the processors
	cpu  []float64 // ms of processor time, mean over the processors
}

// sample runs one copy of the kernel on every processor at once and
// records their mean wall-clock and processor times; it returns the index
// of the sample. The work measured uses every processor — the serve
// daemon's workers, the garbage collector's — and a shared host can slow
// one of its processors and not the other.
func (c *calibrator) sample() int {
	n := runtime.GOMAXPROCS(0)
	walls, cpus := make([]float64, n), make([]float64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread() // so that the thread's processor time is the kernel's
			defer runtime.UnlockOSThread()
			start, cpu := time.Now(), threadCPU()
			v := calKernel()
			walls[i], cpus[i] = ms(time.Since(start)), ms(threadCPU()-cpu)
			calSink.Add(v)
		}()
	}
	wg.Wait()
	c.wall = append(c.wall, sum(walls)/float64(n))
	c.cpu = append(c.cpu, sum(cpus)/float64(n))
	return len(c.wall) - 1
}

// scale is the factor that brings a timing taken between samples lo and
// hi (indexes; lo < hi) of series (c.wall or c.cpu) to the reference
// speed: calNominalMs over the median of the samples from calWindow
// before the timing to calWindow after it.
func (c *calibrator) scale(series []float64, lo, hi int) float64 {
	lo, hi = max(0, lo-calWindow+1), min(len(series), hi+calWindow)
	if lo >= hi {
		return 1
	}
	return calNominalMs / median(series[lo:hi])
}

// speed is the host's speed over the whole run relative to the reference
// host, by the kernel's wall-clock and processor times.
func (c *calibrator) speed() (wall, cpu float64) {
	if len(c.wall) == 0 {
		return 1, 1
	}
	return calNominalMs / median(c.wall), calNominalMs / median(c.cpu)
}

// Processor time as getrusage reports it: user plus system time. On Linux
// with paravirtual time accounting it leaves out the time the hypervisor
// ran something else on the processor.
const (
	rusageSelf   = 0
	rusageThread = 1
)

func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processCPU is the whole process's processor time so far.
func processCPU() time.Duration { return rusageCPU(rusageSelf) }

// threadCPU is the calling thread's processor time so far.
func threadCPU() time.Duration { return rusageCPU(rusageThread) }
