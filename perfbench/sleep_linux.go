package main

import (
	"os"
	"syscall"
	"unsafe"
)

// sleeper waits for short, precise intervals without holding a Go
// processor. The Go timer wakes an idle process only at millisecond
// granularity, and a blocking nanosleep pins one of the two processors
// the workload is sized for; a timerfd read parks the goroutine in the
// network poller, which the kernel wakes as soon as the timer fires.
type sleeper struct {
	f   *os.File
	buf [8]byte
}

func newSleeper() (*sleeper, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &sleeper{f: os.NewFile(fd, "timerfd")}, nil
}

// sleep waits ns nanoseconds (ns > 0).
func (s *sleeper) sleep(ns int64) error {
	spec := [4]int64{0, 0, ns / 1e9, ns % 1e9} // itimerspec: one-shot, relative
	sc, err := s.f.SyscallConn()
	if err != nil {
		return err
	}
	var errno syscall.Errno
	if err := sc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0,
			uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	}); err != nil {
		return err
	}
	if errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	_, err = s.f.Read(s.buf[:])
	return err
}

func (s *sleeper) close() error { return s.f.Close() }
