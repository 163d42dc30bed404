//go:build !linux

package main

import "time"

// sleeper falls back to the Go timer where timerfd is unavailable.
type sleeper struct{}

func newSleeper() (*sleeper, error) { return &sleeper{}, nil }

func (s *sleeper) sleep(ns int64) error {
	time.Sleep(time.Duration(ns))
	return nil
}

func (s *sleeper) close() error { return nil }
