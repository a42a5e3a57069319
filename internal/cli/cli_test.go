package cli

import (
	"context"
	"errors"
	"testing"
	"time"

	"coremap/internal/cmerr"
)

func TestExitCode(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, ExitOK},
		{"plain", errors.New("boom"), ExitError},
		{"permanent", cmerr.New(cmerr.Permanent, "probe", "bad"), ExitError},
		{"interrupted", cmerr.New(cmerr.Interrupted, "ilp", "cancelled"), ExitInterrupted},
		{"raw-cancel", context.Canceled, ExitInterrupted},
		{"raw-deadline", context.DeadlineExceeded, ExitInterrupted},
		{"wrapped-cancel", cmerr.Wrap(cmerr.Interrupted, "cmd", context.DeadlineExceeded), ExitInterrupted},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("%s: ExitCode = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestContextTimeout(t *testing.T) {
	ctx, stop := Context(10 * time.Millisecond)
	defer stop()
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("-timeout context never expired")
	}
	if !cmerr.IsInterrupted(cmerr.FromContext(ctx, "test")) {
		t.Error("expired context does not classify as Interrupted")
	}
}

func TestContextNoTimeout(t *testing.T) {
	ctx, stop := Context(0)
	select {
	case <-ctx.Done():
		t.Fatal("context without timeout is already done")
	default:
	}
	stop()
}
