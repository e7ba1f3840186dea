package main

import (
	"syscall"
	"time"
)

// preciseSleep blocks for about d. The runtime's timers wake up to a
// millisecond late on Linux, which would swamp sub-millisecond request
// latencies measured from their due times; nanosleep(2) wakes within tens
// of microseconds.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
}
