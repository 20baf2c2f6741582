package app_gin

// A copy of the gin corpus app: no bugs, but enough channels, select
// arms and combinations for BMOC to make about 170 solver calls, so a
// diff of the bmoc.sat_* counters across --jobs compares real solver
// work.

func AsyncResult1(ctx context.Context, job string) string {
	out1 := make(chan string, 1)
	go func(j string) {
		out1 <- j + ":done"
	}(job)
	select {
	case r := <-out1:
		return r
	case <-ctx.Done():
		return ""
	}
}

func Pipeline2(count int) int {
	stage2 := make(chan int, 4)
	donep2 := make(chan int)
	go func(k int) {
		for i := range k {
			stage2 <- i * 2
		}
		close(stage2)
	}(count)
	go func() {
		total := 0
		for v := range stage2 {
			total = total + v
		}
		donep2 <- total
	}()
	return <-donep2
}

func workerRound3001(jobs int) int {
	resw3001 := make(chan int, 1)
	go func(n int) {
		acc := 0
		for i := range n {
			acc = acc + i
		}
		resw3001 <- acc
	}(jobs)
	return <-resw3001
}

func workerRound3002(jobs int) int {
	resw3002 := make(chan int, 1)
	go func(n int) {
		acc := 0
		for i := range n {
			acc = acc + i
		}
		resw3002 <- acc
	}(jobs)
	return <-resw3002
}

func helperJoin3003(a string, b string) string {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	return a + "/" + b
}

func helperScale3004(v int, factor int) int {
	if factor == 0 {
		return 0
	}
	scaled := v * factor
	if scaled < 0 {
		return -scaled
	}
	return scaled
}

func helperClamp3005(v int, lo int, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func helperJoin3006(a string, b string) string {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	return a + "/" + b
}

func helperScale3007(v int, factor int) int {
	if factor == 0 {
		return 0
	}
	scaled := v * factor
	if scaled < 0 {
		return -scaled
	}
	return scaled
}

func helperSum3008(limit int) int {
	total := 0
	for i := range limit {
		total = total + i
	}
	return total
}

func helperSum3009(limit int) int {
	total := 0
	for i := range limit {
		total = total + i
	}
	return total
}

func helperDigits3010(v int) int {
	count := 0
	for v > 0 {
		v = v / 10
		count++
	}
	return count
}

func workerRound3011(jobs int) int {
	resw3011 := make(chan int, 1)
	go func(n int) {
		acc := 0
		for i := range n {
			acc = acc + i
		}
		resw3011 <- acc
	}(jobs)
	return <-resw3011
}

func helperDigits3012(v int) int {
	count := 0
	for v > 0 {
		v = v / 10
		count++
	}
	return count
}

func helperScale3013(v int, factor int) int {
	if factor == 0 {
		return 0
	}
	scaled := v * factor
	if scaled < 0 {
		return -scaled
	}
	return scaled
}

func helperScale3014(v int, factor int) int {
	if factor == 0 {
		return 0
	}
	scaled := v * factor
	if scaled < 0 {
		return -scaled
	}
	return scaled
}

func helperSum3015(limit int) int {
	total := 0
	for i := range limit {
		total = total + i
	}
	return total
}

func helperJoin3016(a string, b string) string {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	return a + "/" + b
}

func helperJoin3017(a string, b string) string {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	return a + "/" + b
}

func helperScale3018(v int, factor int) int {
	if factor == 0 {
		return 0
	}
	scaled := v * factor
	if scaled < 0 {
		return -scaled
	}
	return scaled
}

func helperClamp3019(v int, lo int, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func helperDigits3020(v int) int {
	count := 0
	for v > 0 {
		v = v / 10
		count++
	}
	return count
}

func helperSum3021(limit int) int {
	total := 0
	for i := range limit {
		total = total + i
	}
	return total
}

func helperClamp3022(v int, lo int, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
func main() {
	AsyncResult1(background(), "job")
	Pipeline2(4)
}
