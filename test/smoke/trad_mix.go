package p

// One program that triggers each of the five traditional checkers:
// a missing unlock, a double lock through a callee, an AB/BA lock
// order, a struct field written without its usual lock, and
// t.Fatal called from a child goroutine.

type Queue struct {
	mu sync.Mutex
	n  int
}

func Update(q Queue, a int) error {
	q.mu.Lock()
	if a < 0 {
		return errorf("neg")
	}
	q.n = q.n + a
	q.mu.Unlock()
	return nil
}

type Cache struct {
	mu sync.Mutex
	n  int
}

func flush(c Cache) {
	c.mu.Lock()
	c.n = 0
	c.mu.Unlock()
}

func reload(c Cache) {
	c.mu.Lock()
	flush(c)
	c.mu.Unlock()
}

func runCache(x int) {
	c := Cache{n: x}
	reload(c)
}

type Pair struct {
	ma sync.Mutex
	mb sync.Mutex
	a  int
	b  int
}

func lockAB(p Pair) {
	p.ma.Lock()
	p.mb.Lock()
	p.a = 1
	p.mb.Unlock()
	p.ma.Unlock()
}

func lockBA(p Pair) {
	p.mb.Lock()
	p.ma.Lock()
	p.b = 1
	p.ma.Unlock()
	p.mb.Unlock()
}

func runPair(x int) {
	p := Pair{a: x, b: x}
	go lockAB(p)
	go lockBA(p)
}

type Meter struct {
	mu   sync.Mutex
	hits int
}

func bump(m Meter) {
	m.mu.Lock()
	m.hits = m.hits + 1
	m.mu.Unlock()
}

func read(m Meter) int {
	m.mu.Lock()
	v := m.hits
	m.mu.Unlock()
	return v
}

func reset(m Meter) {
	m.hits = 0
}

func runMeter(x int) int {
	m := Meter{hits: x}
	go bump(m)
	go bump(m)
	reset(m)
	return read(m)
}

func TestChild(t *testing.T) {
	c := make(chan bool, 1)
	go func() {
		t.Fatal("boom")
		c <- true
	}()
	sleep(1)
}
