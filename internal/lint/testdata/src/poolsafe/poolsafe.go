// Package poolsafe is the seeded corpus for the poolsafe analyzer: a value
// drawn from sync.Pool Get or an enginePools get* accessor is borrowed by a
// Run (a field of a receiver with a release method, which returns it) or by
// one function (a local that a deferred put hands back). A put, and a call
// of a release method, is deferred by the borrowing function (not by a
// goroutine or another literal inside it) or sits in a release method; a
// pooled-typed value is never stored to a package-level variable or through
// a parameter, never sent on a channel, and never returned past its put.
package poolsafe

import "sync"

var rowPool = sync.Pool{New: func() any { return make([]byte, 0, 64) }}

// enginePools mirrors the mr engine's typed pool accessors. Its own methods
// are exempt: trafficking in pooled values is their whole purpose.
type enginePools struct {
	rows sync.Pool
}

func (p *enginePools) getRows() []int {
	return p.rows.Get().([]int) // exempt inside enginePools methods
}

func (p *enginePools) putRows(r []int) {
	p.rows.Put(r[:0]) // exempt inside enginePools methods
}

// --- non-finding shapes -----------------------------------------------

// goodDeferredPut releases at exit; uses before the return are fine because
// a deferred put runs after them.
func goodDeferredPut() int {
	buf := rowPool.Get().([]byte)
	defer rowPool.Put(buf)
	buf = append(buf, 9)
	return len(buf)
}

// goodDeferredAccessor is the same borrow through the typed accessors.
func goodDeferredAccessor(p *enginePools) int {
	r := p.getRows()
	defer p.putRows(r)
	return len(append(r, 7))
}

// goodDeferredClosure hands the value back from a deferred closure.
func goodDeferredClosure() int {
	var buf = rowPool.Get().([]byte)
	defer func() { rowPool.Put(buf[:0]) }()
	return cap(buf)
}

// goodLocalStructStore keeps the pooled value inside a local aggregate for
// the length of the borrow.
func goodLocalStructStore() int {
	type frame struct{ data []byte }
	var f frame
	buf := rowPool.Get().([]byte)
	defer rowPool.Put(buf)
	f.data = buf
	return len(f.data)
}

// run is a Run that owns its borrowed buffers until release, as the
// in-process backend's inprocRun does.
type run struct {
	p     *enginePools
	tasks [][]int
}

// goodRunTask borrows into a field of the Run: the Run's release returns
// it, after every task and retry has finished.
func (r *run) goodRunTask(i int) {
	r.tasks[i] = r.p.getRows()
	r.tasks[i] = append(r.tasks[i], i)
}

// release is the one place the Run's borrowed values go back.
func (r *run) release() {
	for _, t := range r.tasks {
		r.p.putRows(t)
	}
}

// drive runs the Run's tasks and hands its buffers back when it returns,
// as the engine's job driver does.
func (r *run) drive() int {
	defer r.release()
	r.goodRunTask(0)
	return len(r.tasks[0])
}

// goodNestedDefer defers a literal whose own defer hands the value back:
// both fire as the borrower returns.
func goodNestedDefer() int {
	buf := rowPool.Get().([]byte)
	defer func() {
		defer rowPool.Put(buf)
	}()
	return len(buf)
}

// --- finding shapes ---------------------------------------------------

// The shapes of the former flow-analysis corpus come first, under their old
// names. An in-line put is a finding wherever it sits, so the old
// non-finding shapes that put in line are findings now too.

// goodRoundTrip put in line and returned a scalar.
func goodRoundTrip() int {
	buf := rowPool.Get().([]byte)
	buf = append(buf, 1, 2, 3)
	n := len(buf)
	rowPool.Put(buf[:0]) // want "put outside a defer or a release method"
	return n
}

// goodAccessorRoundTrip put in line through the typed accessors.
func goodAccessorRoundTrip(p *enginePools) int {
	r := p.getRows()
	r = append(r, 7)
	n := len(r)
	p.putRows(r) // want "put outside a defer or a release method"
	return n
}

type mapState struct{ rows []int }

var statePool = sync.Pool{New: func() any { return new(mapState) }}

// goodPointerReturn handed a pooled *mapState up the call chain: nothing
// owns it any more, so it can leak or outlive its borrow.
func goodPointerReturn() *mapState {
	st := statePool.Get().(*mapState) // want "neither handed back by a put in this function nor kept in a field"
	st.rows = st.rows[:0]
	return st
}

// goodOverwriteAfterPut put in line, then re-bound the dead handle.
func goodOverwriteAfterPut() int {
	buf := rowPool.Get().([]byte)
	rowPool.Put(buf) // want "put outside a defer or a release method"
	buf = make([]byte, 4)
	return len(buf)
}

// goodLocalStructStoreInline put the aggregate's field back in line: the
// local that got the value is never handed back.
func goodLocalStructStoreInline() {
	type frame struct{ data []byte }
	var f frame
	buf := rowPool.Get().([]byte) // want "neither handed back by a put in this function nor kept in a field"
	f.data = buf
	rowPool.Put(f.data) // want "put outside a defer or a release method"
}

var leakedGlobal []byte

// badGlobalAssign leaks through a plain package-level assignment.
func badGlobalAssign() {
	buf := rowPool.Get().([]byte)
	leakedGlobal = buf // want "pooled value stored into package-level leakedGlobal"
	rowPool.Put(buf)   // want "put outside a defer or a release method"
}

type frames struct{ last []byte }

var globalFrames frames

// badGlobalFieldStore leaks through a package-level struct field.
func badGlobalFieldStore() {
	buf := rowPool.Get().([]byte)
	globalFrames.last = buf // want "pooled value stored into package-level globalFrames"
	rowPool.Put(buf)        // want "put outside a defer or a release method"
}

// badParamFieldStore leaks through a parameter the caller retains.
func badParamFieldStore(out *frames) {
	buf := rowPool.Get().([]byte)
	out.last = buf   // want "stored through out.last, which the caller can retain past the put"
	rowPool.Put(buf) // want "put outside a defer or a release method"
}

// badChannelSend hands the buffer to a receiver that may hold it past put.
func badChannelSend(ch chan []byte) {
	buf := rowPool.Get().([]byte) // want "neither handed back by a put in this function nor kept in a field"
	ch <- buf                     // want "pooled value buf sent on a channel"
}

// badSliceReturn returns a slice aliasing the pooled backing array.
func badSliceReturn() []byte {
	buf := rowPool.Get().([]byte) // want "neither handed back by a put in this function nor kept in a field"
	buf = append(buf, 1)
	return buf
}

// badUseAfterPut reads the handle after releasing it.
func badUseAfterPut() int {
	buf := rowPool.Get().([]byte)
	rowPool.Put(buf) // want "put outside a defer or a release method"
	return len(buf)
}

// badPutOnOneBranch releases on the done path but keeps using the handle
// after the merge.
func badPutOnOneBranch(p *enginePools, done bool) int {
	r := p.getRows()
	if done {
		p.putRows(r) // want "put outside a defer or a release method"
	}
	return len(r)
}

// The escapes below keep their deferred put, so each is the one finding of
// its function.

var leakedRows [][]byte

// badGlobalAppend appends the borrowed buffer to a package-level slice.
func badGlobalAppend() {
	buf := rowPool.Get().([]byte)
	defer rowPool.Put(buf)
	leakedRows = append(leakedRows, buf) // want "pooled value stored into package-level leakedRows"
}

// badDeferredChannelSend sends a buffer its deferred put will recycle.
func badDeferredChannelSend(ch chan []byte) {
	buf := rowPool.Get().([]byte)
	defer rowPool.Put(buf)
	ch <- buf // want "pooled value buf sent on a channel"
}

// badDeferredParamStore stores a buffer its deferred put will recycle into
// a parameter.
func badDeferredParamStore(out *frames) {
	buf := rowPool.Get().([]byte)
	defer rowPool.Put(buf)
	out.last = buf // want "stored through out.last, which the caller can retain past the put"
}

// badReturnPastPut returns the buffer its deferred put recycles.
func badReturnPastPut() []byte {
	buf := rowPool.Get().([]byte)
	defer rowPool.Put(buf)
	return buf[:1] // want "returning buf\[:1\] hands the caller a pooled value"
}

// badGetIntoParam borrows into a field of a parameter, which no release
// returns.
func badGetIntoParam(st *mapState, p *enginePools) {
	st.rows = p.getRows() // want "neither handed back by a put in this function nor kept in a field"
}

// badRunMidPut returns a Run's buffer from a task, while a retry of the
// task can still read it.
func (r *run) badRunMidPut(i int) {
	r.p.putRows(r.tasks[i]) // want "put outside a defer or a release method"
}

// badGoroutineDeferredPut defers the put inside a goroutine: it fires when
// the goroutine ends, while the borrower still reads the buffer.
func badGoroutineDeferredPut() int {
	buf := rowPool.Get().([]byte)
	go func() {
		defer rowPool.Put(buf) // want "put outside a defer or a release method"
	}()
	return len(buf)
}

// badInlineClosureDeferredPut defers the put inside a literal called in
// line: it fires before the borrower's next statement.
func badInlineClosureDeferredPut() int {
	buf := rowPool.Get().([]byte)
	func() {
		defer rowPool.Put(buf) // want "put outside a defer or a release method"
	}()
	return len(buf)
}

// badCallbackPut hands the value back from a literal passed to a deferred
// call: the callee may run it at any time.
func badCallbackPut(later func(func())) int {
	buf := rowPool.Get().([]byte)
	defer later(func() {
		rowPool.Put(buf) // want "put outside a defer or a release method"
	})
	return len(buf)
}

// badInlineRelease releases the Run in the middle of driving it: the task
// after it reads a returned buffer.
func (r *run) badInlineRelease() int {
	r.goodRunTask(0)
	r.release() // want "put outside a defer or a release method"
	return len(r.tasks[0])
}

// badGoroutineDeferredRelease releases the Run when a goroutine ends, not
// when the driver does.
func (r *run) badGoroutineDeferredRelease() int {
	go func() {
		defer r.release() // want "put outside a defer or a release method"
		r.goodRunTask(1)
	}()
	return len(r.tasks[0])
}
