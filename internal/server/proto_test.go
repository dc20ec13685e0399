package server

import (
	"errors"
	"fmt"
	"testing"
)

// TestWireErrorsRoundTrip: every row of wireErrors goes out as its code and
// retryable bit, and the client's ProtoError unwraps to the row's sentinel
// (to nil after a framing failure); a Commit whose log failed goes out as
// CodeWALDegraded, not retryable.
func TestWireErrorsRoundTrip(t *testing.T) {
	for _, w := range wireErrors {
		err := fmt.Errorf("context: %w", w.err)
		resp := appendErrResponse(nil, 9, err)
		c := &cursor{b: resp}
		status, reqID, code, flags := c.u8(), c.u32(), c.u8(), c.u8()
		msg := c.bytes16()
		if c.bad || status != StatusErr || reqID != 9 || string(msg) != err.Error() {
			t.Fatalf("%v: response %x", w.err, resp)
		}
		if code != w.code || (flags&RetryableFlag != 0) != w.retryable {
			t.Errorf("%v: sent code %d, flags %d; want %d, retryable %v", w.err, code, flags, w.code, w.retryable)
		}
		pe := &ProtoError{Code: code, Retryable: flags&RetryableFlag != 0}
		want := w.err
		if w.framing {
			want = nil
		}
		if u := pe.Unwrap(); u != want {
			t.Errorf("code %d unwraps to %v, want %v", code, u, want)
		}
		if Retryable(pe) != w.retryable {
			t.Errorf("code %d: Retryable %v", code, !w.retryable)
		}
	}
	if code, retry := errToWire(errors.New("unclassified")); code != CodeInternal || retry {
		t.Errorf("an unclassified error is code %d, retryable %v", code, retry)
	}
	failed := commitErr(errors.New("wal: fsync: input/output error"))
	if code, retry := errToWire(failed); code != CodeWALDegraded || retry {
		t.Errorf("a commit whose log failed is code %d, retryable %v; want CodeWALDegraded", code, retry)
	}
	if !errors.Is(&ProtoError{Code: CodeWALDegraded}, errWALDegraded) {
		t.Error("CodeWALDegraded does not unwrap to errWALDegraded")
	}
}
