package fixture

import (
	"context"
	"sync/atomic"
)

// CountingContext is a context cancelled by its own n-th Err call, so that a
// test can stop a search after a known number of cancellation checks and count
// how many more the search makes before it returns.
type CountingContext struct {
	context.Context
	cancelAt int64
	calls    atomic.Int64
	done     chan struct{}
}

// NewCountingContext returns a context whose cancelAt-th Err call cancels it.
func NewCountingContext(cancelAt int64) *CountingContext {
	return &CountingContext{Context: context.Background(), cancelAt: cancelAt, done: make(chan struct{})}
}

// Done returns a channel closed by the cancelling Err call.
func (c *CountingContext) Done() <-chan struct{} { return c.done }

// Err counts the call and reports context.Canceled from the cancelAt-th on.
func (c *CountingContext) Err() error {
	switch n := c.calls.Add(1); {
	case n < c.cancelAt:
		return nil
	case n == c.cancelAt:
		close(c.done)
	}
	return context.Canceled
}

// ChecksAfterCancel returns how many Err calls followed the cancelling one.
func (c *CountingContext) ChecksAfterCancel() int64 {
	return max(0, c.calls.Load()-c.cancelAt)
}
