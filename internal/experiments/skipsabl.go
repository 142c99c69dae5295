package experiments

import (
	"fmt"
	"time"

	"websearchbench/internal/search"
)

// ABL6Result contrasts SkipTo with and without skip tables.
type ABL6Result struct {
	WithSkips    time.Duration // mean conjunctive query service time
	WithoutSkips time.Duration
	Speedup      float64
}

// AblationSkipLists measures what posting-list skip tables buy on
// conjunctive (AND) queries, whose leapfrog evaluation is dominated by
// SkipTo calls over the longest lists.
func (c *Context) AblationSkipLists() ABL6Result {
	seg := c.Segment()
	qs := c.Analyzed()
	run := func(disable bool) time.Duration {
		s := search.NewSearcher(seg, search.Options{TopK: 10, DisableSkips: disable})
		var total time.Duration
		n := 0
		for _, q := range qs {
			if len(q.Terms) < 2 {
				continue
			}
			and := q
			and.Mode = search.ModeAnd
			total += fastest(func() { s.Search(and) })
			n++
		}
		if n == 0 {
			return 0
		}
		return total / time.Duration(n)
	}
	res := ABL6Result{WithoutSkips: run(true), WithSkips: run(false)}
	if res.WithSkips > 0 {
		res.Speedup = float64(res.WithoutSkips) / float64(res.WithSkips)
	}
	c.section("ABL-6", "posting-list skip tables (AND queries)")
	w := c.table()
	fmt.Fprintf(w, "with skip tables\t%s\n", ms(res.WithSkips))
	fmt.Fprintf(w, "linear SkipTo\t%s\n", ms(res.WithoutSkips))
	fmt.Fprintf(w, "speedup\t%.2fx\n", res.Speedup)
	w.Flush()
	c.record("ABL-6", "with-skips", "ns_per_query", float64(res.WithSkips))
	c.record("ABL-6", "linear", "ns_per_query", float64(res.WithoutSkips))
	c.record("ABL-6", "with-skips", "speedup", res.Speedup)
	return res
}
