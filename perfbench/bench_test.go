package main

import (
	"strings"
	"testing"

	"pmwcas"
)

func TestTailQuantileRule(t *testing.T) {
	for _, tc := range []struct {
		n    uint64
		want float64
	}{
		{100000, 0.99}, // 1000 samples beyond p99
		{1000, 0.99},   // exactly 10 beyond
		{500, 0.98},    // p99 would leave 5 beyond; fall back to 10 beyond
		{20, 0.5},
		{10, 0}, // too small for any tail percentile
		{0, 0},
	} {
		if got := tailQuantile(tc.n, 0.99, 10); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// The quantile chosen for a small sample really leaves 10 beyond it.
	h := newHist()
	for v := int64(1); v <= 500; v++ {
		h.record(v)
	}
	q := tailQuantile(h.n, 0.99, 10)
	if got := h.quantile(q); got != 490 {
		t.Errorf("p%.0f of 1..500 = %v, want 490 (10 samples beyond)", q*100, got)
	}
	if got := h.quantile(0.5); got != 250 {
		t.Errorf("p50 of 1..500 = %v, want 250", got)
	}
}

func TestHistPrecision(t *testing.T) {
	for _, v := range []uint64{0, 1, 1023, 1024, 1025, 5000, 123456789, 1 << 40} {
		b := bucketOf(v)
		lo := bucketValue(b)
		if lo > v || (v < 1<<36 && float64(v-lo) > float64(v)/subCount) {
			t.Errorf("value %d lands in bucket %d starting at %d", v, b, lo)
		}
	}
}

func TestSummarizeMedianOfWindows(t *testing.T) {
	w := newWindowed(3)
	for win, lat := range []int64{100, 200, 900} { // one slow window
		for i := 0; i < 2000; i++ {
			w.record(win, classRead, lat)
		}
	}
	lat, tput := summarize([]*windowed{w}, 1, 0.99)
	if lat[classRead].p50 != 200 || lat[classRead].tail != 200 {
		t.Errorf("p50 %v, tail %v: want the median window's 200", lat[classRead].p50, lat[classRead].tail)
	}
	if lat[classRead].samples != 6000 || tput != 2000 {
		t.Errorf("samples %d, throughput %v", lat[classRead].samples, tput)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{start: 0, end: 100}
	for _, tc := range []struct {
		name string
		kids []span
		want int64
	}{
		{"none", nil, 100},
		{"disjoint", []span{{start: 10, end: 20}, {start: 50, end: 60}}, 80},
		{"overlapping", []span{{start: 10, end: 30}, {start: 20, end: 40}}, 70},
		{"nested", []span{{start: 10, end: 50}, {start: 20, end: 30}}, 60},
		{"clipped to parent", []span{{start: -10, end: 10}, {start: 90, end: 120}}, 80},
		{"unsorted mix", []span{{start: 50, end: 60}, {start: 20, end: 40}, {start: 10, end: 30}, {start: 55, end: 58}}, 60},
	} {
		if got := selfTime(parent, tc.kids); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer(0, 10)
	tr.begin("op", 0)
	tr.child("layer", 10, 70)
	tr.end(100)
	if got := selfP50([]*tracer{tr}, "op"); got != 40 {
		t.Errorf("root self time %v, want 40", got)
	}
	if got := selfP50([]*tracer{tr}, "layer"); got != 60 {
		t.Errorf("layer self time %v, want 60", got)
	}
	if len(tr.kept) != 2 || tr.kept[1].parent != 0 || tr.kept[0].req != tr.kept[1].req {
		t.Errorf("kept spans %+v", tr.kept)
	}
}

func TestSameSeedSameStreams(t *testing.T) {
	z := newZipf(kvKeys, kvZipfS, 7)
	a, b := newKVGen(7, 1, z), newKVGen(7, 1, newZipf(kvKeys, kvZipfS, 7))
	other := newKVGen(8, 1, newZipf(kvKeys, kvZipfS, 8))
	differs := false
	for i := 0; i < 10000; i++ {
		x, y, o := a.next(), b.next(), other.next()
		if x != y {
			t.Fatalf("op %d: %+v vs %+v from the same seed", i, x, y)
		}
		if x.kind != opScan && x.idx%kvConns != 1 {
			t.Fatalf("op %d: connection 1 touched key %d it does not own", i, x.idx)
		}
		differs = differs || x != o
	}
	if !differs {
		t.Error("seeds 7 and 8 gave the same stream")
	}
	r1, r2 := newRNG(3, "bwtree-churn", 0), newRNG(3, "bwtree-churn", 0)
	for i := 0; i < 1000; i++ {
		if bwMix.draw(r1) != bwMix.draw(r2) || r1.below(bwKeys) != r2.below(bwKeys) {
			t.Fatal("bwtree streams diverge under one seed")
		}
	}
	o1 := ownedOrder(5, "hash-preload", 1, 64, 2)
	o2 := ownedOrder(5, "hash-preload", 1, 64, 2)
	for i := range o1 {
		if o1[i] != o2[i] || o1[i]%2 != 1 {
			t.Fatalf("preload orders differ or leave the worker's keys: %v vs %v", o1, o2)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := newZipf(1024, 1.1, 1)
	r := newRNG(1, "t", 0)
	counts := map[int]int{}
	for i := 0; i < 100000; i++ {
		counts[z.sample(r)]++
	}
	hottest := counts[int(z.perm[0])]
	if hottest < 10000 || counts[int(z.perm[1023])] > hottest/100 {
		t.Errorf("rank 0 drew %d, rank 1023 drew %d: not Zipf-skewed", hottest, counts[int(z.perm[1023])])
	}
}

func TestValueEncodings(t *testing.T) {
	for k := uint64(1); k < 1000; k++ {
		v := wordValue(k, uint32(k*7))
		if !wordValueOK(k, v) || wordValueOK(k+1, v) || v>>61 != 0 {
			t.Fatalf("word value for key %d: %#x", k, v)
		}
	}
	key := kvKey(nil, 4711)
	if string(key) != "k04711" {
		t.Fatalf("kvKey = %q", key)
	}
	if idx, ok := kvKeyIndex(key); !ok || idx != 4711 {
		t.Fatalf("kvKeyIndex(%q) = %d, %v", key, idx, ok)
	}
	v := kvValue(nil, 4711, 9, kvLargeValue)
	if ver, ok := kvValueOK(4711, v); !ok || ver != 9 || len(v) != kvLargeValue {
		t.Fatalf("kvValueOK = %d, %v", ver, ok)
	}
	if _, ok := kvValueOK(4712, v); ok {
		t.Error("a value read under another key passed")
	}
	torn := append([]byte(nil), v...)
	copy(torn[512:], kvValue(nil, 4711, 10, kvLargeValue)[512:]) // second half from a later write
	if _, ok := kvValueOK(4711, torn); ok {
		t.Error("a torn value passed")
	}
}

func TestKVOracleCatchesWrongValues(t *testing.T) {
	sh := newKVShadow()
	sh.ver[10], sh.size[10] = 3, kvSmallValue
	get := sh.apply(kvOp{kind: opGet, idx: 10}, 0)
	if msg := get.check(true, true, kvValue(nil, 10, 3, kvSmallValue), nil); msg != "" {
		t.Errorf("correct GET rejected: %s", msg)
	}
	for name, val := range map[string][]byte{
		"stale version": kvValue(nil, 10, 2, kvSmallValue),
		"other key":     kvValue(nil, 12, 3, kvSmallValue),
		"wrong size":    kvValue(nil, 10, 3, kvLargeValue),
	} {
		if msg := get.check(true, true, val, nil); msg == "" {
			t.Errorf("%s passed the GET oracle", name)
		}
	}
	if msg := get.check(true, false, nil, nil); msg == "" {
		t.Error("a lost write (NOT_FOUND for an acknowledged PUT) passed")
	}
	del := sh.apply(kvOp{kind: opDelete, idx: 10}, 0)
	if msg := del.check(true, true, nil, nil); msg != "" {
		t.Errorf("DELETE of a present key rejected: %s", msg)
	}
	gone := sh.apply(kvOp{kind: opGet, idx: 10}, 0)
	if msg := gone.check(true, true, kvValue(nil, 10, 3, kvSmallValue), nil); msg == "" {
		t.Error("a deleted key's value passed")
	}
	if msg := get.check(false, true, nil, nil); msg == "" {
		t.Error("a failed request passed")
	}
}

func TestKVOracleScans(t *testing.T) {
	sh := newKVShadow()
	for _, idx := range []int{20, 21, 22, 23, 24} {
		sh.ver[idx], sh.size[idx] = 1, kvSmallValue
	}
	entry := func(idx int, ver uint32) kvPair {
		return kvPair{kvKey(nil, idx), kvValue(nil, idx, ver, kvSmallValue)}
	}
	scan := sh.apply(kvOp{kind: opScan, idx: 20}, 0)
	ok := []kvPair{entry(20, 1), entry(21, 1), entry(22, 1), entry(23, 1)}
	if msg := scan.check(true, true, nil, ok); msg != "" {
		t.Errorf("correct SCAN rejected: %s", msg)
	}
	for name, entries := range map[string][]kvPair{
		"descending":   {entry(21, 1), entry(20, 1)},
		"below start":  {entry(19, 1), entry(20, 1)},
		"lost own key": {entry(20, 1), entry(21, 1), entry(23, 1)},
		"stale own":    {entry(20, 1), entry(21, 1), entry(22, 7)},
		"cross-key":    {entry(20, 1), {kvKey(nil, 21), kvValue(nil, 25, 1, kvSmallValue)}},
	} {
		if msg := scan.check(true, true, nil, entries); msg == "" {
			t.Errorf("%s SCAN passed the oracle", name)
		}
	}
}

func TestBwTreeDurableOracle(t *testing.T) {
	shadow := make([]uint64, 8)
	shadow[1] = wordValue(bwKey(1), 1)
	shadow[4] = wordValue(bwKey(4), 2)
	good := []pmwcas.BwTreeEntry{{Key: bwKey(1), Value: shadow[1]}, {Key: bwKey(4), Value: shadow[4]}}
	if live, msgs := bwDurableDiff(shadow, good); live != 2 || len(msgs) != 0 {
		t.Fatalf("matching state: live %d, %v", live, msgs)
	}
	for name, durable := range map[string][]pmwcas.BwTreeEntry{
		"lost write":  good[:1],
		"wrong value": {good[0], {Key: bwKey(4), Value: wordValue(bwKey(4), 1)}},
		"resurrected": append([]pmwcas.BwTreeEntry{{Key: bwKey(2), Value: wordValue(bwKey(2), 1)}}, good...),
	} {
		if _, msgs := bwDurableDiff(shadow, durable); len(msgs) == 0 {
			t.Errorf("%s passed the durability oracle", name)
		} else if !strings.Contains(msgs[0], "durable") {
			t.Errorf("%s: unexpected message %q", name, msgs[0])
		}
	}
}
