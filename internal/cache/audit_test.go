package cache

import (
	"strings"
	"testing"
)

// Seeded corruption of the cache's internal bookkeeping must be caught
// by Audit with a message naming the inconsistency — this is what the
// runtime invariant auditor's "cache-consistent" check relies on.
func TestAuditCatchesSeededCorruption(t *testing.T) {
	cases := []struct {
		name    string
		want    string
		corrupt func(c *Cache)
	}{
		{
			name: "free buffer in service",
			want: "corrupt free buffer",
			corrupt: func(c *Cache) {
				c.free[DemandClass].head.state = Ready
			},
		},
		{
			name: "mapped buffer missing from map",
			want: "not in map",
			corrupt: func(c *Cache) {
				buf := c.AllocateDemand(0, 7)
				delete(c.byBlock, 7)
				_ = buf
			},
		},
		{
			name: "prefetched flag on a pinned demand buffer",
			want: "pinned",
			corrupt: func(c *Cache) {
				buf := c.AllocateDemand(0, 9)
				buf.prefetched = true
			},
		},
		{
			name: "retired buffer back in service",
			want: "retired buffer",
			corrupt: func(c *Cache) {
				if c.Squeeze(1) != 1 {
					t.Fatal("squeeze retired nothing")
				}
				for i := range c.arena {
					b := &c.arena[i]
					if b.retired {
						b.onLRU = true
						return
					}
				}
				t.Fatal("no retired buffer found")
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, c := newTestCache(2, 2, 1, 4, 4)
			if err := c.Audit(); err != nil {
				t.Fatalf("fresh cache fails audit: %v", err)
			}
			tc.corrupt(c)
			err := c.Audit()
			if err == nil {
				t.Fatal("corruption passed the audit")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("audit error %q does not mention %q", err, tc.want)
			}
			// CheckInvariants is the panicking wrapper the engine uses.
			defer func() {
				if recover() == nil {
					t.Fatal("CheckInvariants did not panic on corruption")
				}
			}()
			c.CheckInvariants()
		})
	}
}
