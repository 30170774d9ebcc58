package flit

import "fmt"

// Pool recycles descriptor flits for one link port. The simulation
// engine fires one event at a time, so the pool is deliberately a plain
// free list — no sync.Pool, whose scheduler-dependent reuse order would
// leak nondeterminism into allocation patterns (and whose per-P caches
// defeat the engine's single-threaded locality anyway). Only the flits
// are pooled: the packets they point at stay garbage-collected.
//
// Ownership is reference-counted because one flit can be held by two
// parties at once: a port's replay buffer and its retry queue. Every
// holder calls Retain when it files the flit and Release when it lets
// go; the last Release recycles the flit. Release on a flit that never
// came from a pool is a bug and panics. The zero Pool is empty and
// ready to use; a link port embeds its own.
type Pool struct {
	free *Flit // recycled flits, LIFO for cache warmth
	out  int   // minted by Get and not yet recycled
}

// Get returns a descriptor flit with refs=1, Seq 0, Last false and no
// packet; the caller fills in Seq, Last and Pkt.
func (pl *Pool) Get() *Flit {
	f := pl.free
	if f == nil {
		f = &Flit{home: pl}
	} else {
		pl.free = f.next
		f.next = nil
		f.Seq, f.Last = 0, false
	}
	f.refs = 1
	pl.out++
	return f
}

// Outstanding reports the flits minted by Get and not yet recycled by
// their last Release: zero once every holder has let go.
func (pl *Pool) Outstanding() int { return pl.out }

// poolFree marks a flit that currently sits in its pool's free list.
// Using a sentinel instead of 0 lets Release and Retain distinguish "a
// stale holder touched a recycled flit" (a use-after-free that would
// otherwise double-insert the flit and silently cycle the free list)
// from an ordinary over-release, and panic for both — at the first
// wrong touch, not after the corruption has propagated.
const poolFree = int32(-1)

// Retain adds a holder to a pooled flit. A no-op on non-pooled flits
// (refs stays 0) so shared helpers can call it unconditionally.
// Retaining a flit that is sitting in a free list panics: some holder
// kept the pointer past its last Release.
func (f *Flit) Retain() {
	if f.refs == poolFree {
		panic(fmt.Sprintf("flit: retain of a recycled flit seq=%d (use after free)", f.Seq))
	}
	if f.refs > 0 {
		f.refs++
	}
}

// Release drops one holder; the last holder's Release returns the flit
// to the pool, dropping its packet pointer so a parked flit pins no
// packet. Releasing a flit that was never pooled, more times than it
// was retained, after it has already been recycled, or into a pool
// other than the one that minted it panics — all are ownership bugs
// that would otherwise surface as silent free-list corruption much
// later.
func (pl *Pool) Release(f *Flit) {
	if f.refs == poolFree {
		panic(fmt.Sprintf("flit: double release of flit seq=%d (already in the pool free list)", f.Seq))
	}
	if f.home != nil && f.home != pl {
		panic(fmt.Sprintf("flit: flit seq=%d released into a foreign pool (minted by a different link side)", f.Seq))
	}
	f.refs--
	if f.refs > 0 {
		return
	}
	if f.refs < 0 {
		panic(fmt.Sprintf("flit: over-released flit seq=%d (refs=%d)", f.Seq, f.refs))
	}
	f.refs = poolFree
	pl.out--
	f.Pkt = nil
	f.next = pl.free
	pl.free = f
}
