package main

import (
	"time"

	"fcc/internal/flit"
	"fcc/internal/sim"
)

// calibration is a fixed probe of machine speed, recorded with every
// result so numbers from different machines can be told apart.
type calibration struct {
	engineNsPerEvent float64 // sim.Engine schedule + fire of one event
	crcNsPerKB       float64 // flit.CRC16 over a fixed 4 KiB buffer
}

// crcSink keeps the CRC loop's result live.
var crcSink uint16

const (
	calibEvents = 2_000_000
	calibCRCs   = 2_000
)

func calibrate() calibration {
	var c calibration
	e := sim.NewEngine()
	left := calibEvents
	var tick func()
	tick = func() {
		if left--; left > 0 {
			e.After(sim.Nanosecond, tick)
		}
	}
	e.After(sim.Nanosecond, tick)
	t0 := time.Now() //fcclint:allow detban host wall clock is what the benchmark measures
	e.Run()
	c.engineNsPerEvent = float64(time.Since(t0).Nanoseconds()) / float64(e.Events()) //fcclint:allow detban host wall clock is what the benchmark measures

	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i*131 + 7)
	}
	var acc uint16
	t0 = time.Now() //fcclint:allow detban host wall clock is what the benchmark measures
	for i := 0; i < calibCRCs; i++ {
		acc ^= flit.CRC16(buf)
	}
	c.crcNsPerKB = float64(time.Since(t0).Nanoseconds()) / (calibCRCs * 4) //fcclint:allow detban host wall clock is what the benchmark measures
	crcSink = acc
	return c
}
