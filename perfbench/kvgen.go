package main

import (
	"fmt"
	"math/rand"
)

// opKind is one protocol request kind of the kv workloads.
type opKind uint8

const (
	opGet  opKind = iota // get of 1 or 4 keys
	opSet                // set
	opDel                // delete
	opGets               // gets of 1 key; a hit schedules a cas in the next burst
	opCas                // cas with the token of the preceding gets
)

// isWrite reports whether k is timed as a set (every write verb is).
func (k opKind) isWrite() bool { return k == opSet || k == opDel || k == opCas }

// kvOp is one request of a burst.
type kvOp struct {
	kind opKind
	keys []int
	// tok is the cas token the gets returned (network run); pin is the
	// pinned snapshot standing in for it (in-process replay).
	tok uint64
	pin *casPin
	// ver is the version a set or cas writes, or the sequence number a
	// delete consumes.
	ver version
	// rc is the replay connection that issued the op (replay only).
	rc *replayConn
}

// mixSpec is a kv workload's request mix over its key space.
type mixSpec struct {
	keys int
	// zipf is the Zipf exponent of key popularity; 0 draws uniformly.
	zipf float64
	// Fractions of set, delete and gets draws; the rest are gets of one
	// key and of four keys, alternately.
	pSet, pDel, pGets float64
	// mustExist: no key is ever deleted, so a get miss is a wrong answer.
	mustExist bool
}

// opGen draws one connection's request stream. The same seed and
// connection number always give the same draws.
type opGen struct {
	mix  mixSpec
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int // popularity rank -> key id
	gets int
}

func newOpGen(mix mixSpec, seed int64, conn int) *opGen {
	g := &opGen{mix: mix, rng: rand.New(rand.NewSource(seed*7919 + int64(conn) + 1))}
	if mix.zipf > 0 {
		// The popularity order is shared by every connection.
		g.perm = rand.New(rand.NewSource(seed)).Perm(mix.keys)
		g.zipf = rand.NewZipf(g.rng, mix.zipf, 1, uint64(mix.keys-1))
	}
	return g
}

func (g *opGen) key() int {
	if g.zipf != nil {
		return g.perm[g.zipf.Uint64()]
	}
	return g.rng.Intn(g.mix.keys)
}

func (g *opGen) draw() kvOp {
	x := g.rng.Float64()
	switch {
	case x < g.mix.pSet:
		return kvOp{kind: opSet, keys: []int{g.key()}}
	case x < g.mix.pSet+g.mix.pDel:
		return kvOp{kind: opDel, keys: []int{g.key()}}
	case x < g.mix.pSet+g.mix.pDel+g.mix.pGets:
		return kvOp{kind: opGets, keys: []int{g.key()}}
	}
	g.gets++
	if g.gets%2 == 0 {
		return kvOp{kind: opGet, keys: []int{g.key(), g.key(), g.key(), g.key()}}
	}
	return kvOp{kind: opGet, keys: []int{g.key()}}
}

// burst fills dst with depth requests: the cas ops scheduled by the
// previous burst's gets hits first, then fresh draws.
func (g *opGen) burst(dst, pendingCas []kvOp, depth int) []kvOp {
	dst = append(dst[:0], pendingCas...)
	for len(dst) < depth {
		dst = append(dst, g.draw())
	}
	return dst
}

// requestLine renders op as the protocol command line a client sends
// (without CRLF and payload).
func requestLine(dst []byte, op *kvOp) []byte {
	switch op.kind {
	case opGet, opGets:
		if op.kind == opGet {
			dst = append(dst, "get"...)
		} else {
			dst = append(dst, "gets"...)
		}
		for _, k := range op.keys {
			dst = append(dst, ' ')
			dst = append(dst, keyName(k)...)
		}
		return dst
	case opSet:
		return fmt.Appendf(dst, "set %s 0 0 %d", keyName(op.keys[0]), valueLen)
	case opCas:
		return fmt.Appendf(dst, "cas %s 0 0 %d %d", keyName(op.keys[0]), valueLen, op.tok)
	}
	return fmt.Appendf(dst, "delete %s", keyName(op.keys[0]))
}
