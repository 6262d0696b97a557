package exitcode

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
)

func TestFromVerifyError(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("run: %w", err) }
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, OK},
		{"core deadline", core.ErrDeadline, Timeout},
		{"wrapped core deadline", wrap(core.ErrDeadline), Timeout},
		{"core cancelled", core.ErrCancelled, Interrupted},
		{"wrapped core cancelled", wrap(core.ErrCancelled), Interrupted},
		{"core budget", core.ErrBudget, Budget},
		{"budget error", &core.BudgetError{}, Budget},
		{"wrapped budget error", wrap(&core.BudgetError{}), Budget},
		{"core bad trace", core.ErrBadTrace, BadInput},
		{"wrapped core bad trace", wrap(core.ErrBadTrace), BadInput},
		{"bare deadline", context.DeadlineExceeded, Timeout},
		{"wrapped deadline", wrap(context.DeadlineExceeded), Timeout},
		{"bare canceled", context.Canceled, Interrupted},
		{"wrapped canceled", wrap(context.Canceled), Interrupted},
		{"other", errors.New("disk full"), Internal},
	}
	for _, tc := range cases {
		if got := FromVerifyError(tc.err); got != tc.want {
			t.Errorf("%s: FromVerifyError(%v) = %d, want %d", tc.name, tc.err, got, tc.want)
		}
	}
}
