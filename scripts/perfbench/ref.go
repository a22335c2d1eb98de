package main

import (
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// The speed reference is a fixed piece of work of the benchmark's own,
// independent of the program: event-driven evaluation of a random gate DAG,
// the access pattern of the pipeline's simulators and PODEM implication.
// A shared host runs the same deterministic pass up to twice as slowly for
// minutes at a time, and its two vCPUs differ in speed by up to a quarter
// from one second to the next, so raw times say more about the neighbours
// than about the program. The benchmark runs all Go code on one P (see
// main), so the reference runs on the CPU the program runs on, between the
// program's own time slices: before and after every timed call, and every
// refEvery during it. All of it is timed in process CPU time, which leaves
// out steal time. The call's CPU time, less the repetitions run during it,
// is divided by the median slowdown the repetitions show; the result is the
// call's time at the reference speed.

const (
	refInputs = 1 << 10
	refNodes  = 1 << 16
	refWindow = 1 << 12 // fanins come from the previous refWindow nodes
	// refEvents is the node evaluations per repetition: about 2 ms, well
	// inside the 10 ms after which the Go scheduler preempts a goroutine
	// when another is waiting.
	refEvents = 1 << 14
	refReps   = 9 // repetitions per measurement between calls; the median counts
	// refEvery is the period of the repetitions run during a call, on a
	// goroutine of their own: about 2% of the CPU.
	refEvery = 100 * time.Millisecond
)

// refNominal is the CPU time of one repetition at the reference speed,
// about the median repetition on a quiet 2-vCPU Linux VM (Intel Xeon,
// Go 1.24). Scaled times are seconds at that speed.
const refNominal = 1750 * time.Microsecond

type speedRef struct {
	kind     []uint8 // 0 and, 1 or, 2 xor, 3 nand; inputs have none
	in0, in1 []int32
	foStart  []int32 // fanout of node i: fo[foStart[i]:foStart[i+1]]
	fo       []int32
	val      []uint8
	queued   []bool
	heap     []int32 // pending nodes, smallest (topologically first) on top
	rng      *rand.Rand
}

func newSpeedRef() *speedRef {
	rng := rand.New(rand.NewSource(1))
	r := &speedRef{
		kind: make([]uint8, refNodes), in0: make([]int32, refNodes), in1: make([]int32, refNodes),
		foStart: make([]int32, refNodes+1), val: make([]uint8, refNodes), queued: make([]bool, refNodes),
		rng: rng,
	}
	count := make([]int32, refNodes)
	for i := refInputs; i < refNodes; i++ {
		lo := max(0, i-refWindow)
		r.kind[i] = uint8(rng.Intn(4))
		r.in0[i] = int32(lo + rng.Intn(i-lo))
		r.in1[i] = int32(lo + rng.Intn(i-lo))
		count[r.in0[i]]++
		count[r.in1[i]]++
	}
	for i := 0; i < refNodes; i++ {
		r.foStart[i+1] = r.foStart[i] + count[i]
	}
	r.fo = make([]int32, r.foStart[refNodes])
	next := append([]int32(nil), r.foStart[:refNodes]...)
	for i := refInputs; i < refNodes; i++ {
		for _, f := range [2]int32{r.in0[i], r.in1[i]} {
			r.fo[next[f]] = int32(i)
			next[f]++
		}
	}
	for i := refInputs; i < refNodes; i++ {
		r.val[i] = r.eval(i)
	}
	return r
}

func (r *speedRef) eval(i int) uint8 {
	a, b := r.val[r.in0[i]], r.val[r.in1[i]]
	switch r.kind[i] {
	case 0:
		return a & b
	case 1:
		return a | b
	case 2:
		return a ^ b
	}
	return 1 - a&b
}

func (r *speedRef) push(n int32) {
	if r.queued[n] {
		return
	}
	r.queued[n] = true
	h := append(r.heap, n)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	r.heap = h
}

func (r *speedRef) pop() int32 {
	h := r.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	r.heap = h
	r.queued[top] = false
	return top
}

// rep flips random inputs and propagates the changes until refEvents nodes
// have been evaluated.
func (r *speedRef) rep() {
	for events := 0; events < refEvents; {
		if len(r.heap) == 0 {
			in := r.rng.Intn(refInputs)
			r.val[in] ^= 1
			for _, f := range r.fo[r.foStart[in]:r.foStart[in+1]] {
				r.push(f)
			}
			continue
		}
		n := r.pop()
		events++
		if v := r.eval(int(n)); v != r.val[n] {
			r.val[n] = v
			for _, f := range r.fo[r.foStart[n]:r.foStart[n+1]] {
				r.push(f)
			}
		}
	}
}

// measure returns the median time of refReps repetitions. It collects the
// garbage first, so the program's collector does not run in the timing.
func (r *speedRef) measure() time.Duration {
	runtime.GC()
	ds := make([]time.Duration, refReps)
	for i := range ds {
		ds[i] = r.timeRep()
	}
	return medianDuration(ds)
}

// timeRep returns the CPU time of one repetition.
func (r *speedRef) timeRep() time.Duration {
	c0 := processCPU()
	r.rep()
	return processCPU() - c0
}

// processCPU returns the CPU time (user + system) the process has used.
// With one P it is the time the P was busy, and on a kernel that accounts
// paravirtual steal time (CONFIG_PARAVIRT_TIME_ACCOUNTING) it leaves out
// the time the hypervisor ran other guests on the vCPU, which wall time
// counts.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sample runs one repetition every period until stop is closed, then sends
// the repetitions' times on the returned channel. With one P, each
// repetition takes the P from the program.
func (r *speedRef) sample(period time.Duration, stop chan struct{}) chan []time.Duration {
	out := make(chan []time.Duration, 1)
	go func() {
		var ds []time.Duration
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-stop:
				out <- ds
				return
			case <-t.C:
				ds = append(ds, r.timeRep())
			}
		}
	}()
	return out
}

func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
