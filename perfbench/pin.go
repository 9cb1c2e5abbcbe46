package main

import (
	"errors"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// cpuSet is a Linux CPU affinity mask.
type cpuSet [16]uint64

// affinity gets or sets (trap) the CPU mask of thread tid, 0 meaning
// the calling thread.
func affinity(trap uintptr, tid int, set *cpuSet) error {
	_, _, errno := syscall.RawSyscall(trap, uintptr(tid), unsafe.Sizeof(*set), uintptr(unsafe.Pointer(set)))
	if errno != 0 {
		return errno
	}
	return nil
}

// setProcessAffinity sets the CPU mask of every thread of the process.
// Threads created later inherit the mask of the thread creating them.
func setProcessAffinity(set *cpuSet) error {
	ents, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, e := range ents {
		tid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if err := affinity(syscall.SYS_SCHED_SETAFFINITY, tid, set); err != nil && !errors.Is(err, syscall.ESRCH) {
			return err
		}
	}
	return nil
}

// pinFastest moves the whole process onto the CPU where a short probe
// runs fastest right now, and returns the function that undoes it.
//
// On a shared host, neighbours slow one vCPU at a time by up to 2x, in
// bursts of 0.1-1 s, so an op that happens to run on a contended vCPU
// can take twice as long as the same op next to it. Choosing the CPU
// just before a short op keeps most ops out of the bursts.
func pinFastest() (undo func()) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var all cpuSet
	if affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &all) != nil {
		return func() {}
	}
	var best cpuSet
	bestT := time.Duration(1<<63 - 1)
	for cpu := 0; cpu < len(all)*64; cpu++ {
		if all[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		var one cpuSet
		one[cpu/64] = 1 << (cpu % 64)
		if affinity(syscall.SYS_SCHED_SETAFFINITY, 0, &one) != nil {
			continue
		}
		for rep := 0; rep < 2; rep++ {
			t0 := time.Now()
			refSink += splitMix(1 << 15)
			if d := time.Since(t0); d < bestT {
				best, bestT = one, d
			}
		}
	}
	// Probing moved this thread; put it back before moving the process.
	_ = affinity(syscall.SYS_SCHED_SETAFFINITY, 0, &all)
	// Widening the masks back to the set they came from cannot fail
	// for any thread that still exists.
	undo = func() { _ = setProcessAffinity(&all) }
	if bestT == time.Duration(1<<63-1) || setProcessAffinity(&best) != nil {
		undo()
		return func() {}
	}
	return undo
}
