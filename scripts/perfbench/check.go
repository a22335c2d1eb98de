package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"compsynth/internal/circuit"
)

// The output check evaluates netlists with its own gate evaluator — neither
// internal/simulate nor the circuit's frozen CSR view — so a bug shared by
// the pipeline's simulators cannot hide a wrong output.

const (
	// exhaustiveInputs is the largest primary-input count checked on every
	// input pattern; wider circuits are checked on sampleWords random
	// 64-pattern words and counted as sampled.
	exhaustiveInputs = 16
	sampleWords      = 1024
)

// netlist is a circuit compiled for 64-way bit-parallel evaluation.
type netlist struct {
	c     *circuit.Circuit
	order []int // gates reachable from the outputs, fanins first
}

func compile(c *circuit.Circuit) (*netlist, error) {
	n := &netlist{c: c}
	state := make([]uint8, len(c.Nodes)) // 0 new, 1 on the DFS stack, 2 done
	var visit func(id int) error
	visit = func(id int) error {
		if id < 0 || id >= len(c.Nodes) || c.Nodes[id] == nil {
			return fmt.Errorf("dangling node %d", id)
		}
		switch state[id] {
		case 1:
			return fmt.Errorf("combinational cycle through node %d", id)
		case 2:
			return nil
		}
		state[id] = 1
		for _, f := range c.Nodes[id].Fanin {
			if err := visit(f); err != nil {
				return err
			}
		}
		state[id] = 2
		if c.Nodes[id].Type != circuit.Input {
			n.order = append(n.order, id)
		}
		return nil
	}
	for _, o := range c.Outputs {
		if err := visit(o); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// eval computes every reachable node's word from the primary-input words
// in vals (indexed by node ID) and returns the output words.
func (n *netlist) eval(vals []uint64) ([]uint64, error) {
	for _, id := range n.order {
		nd := n.c.Nodes[id]
		in := nd.Fanin
		var v uint64
		switch nd.Type {
		case circuit.Const0:
		case circuit.Const1:
			v = ^uint64(0)
		case circuit.Buf:
			v = vals[in[0]]
		case circuit.Not:
			v = ^vals[in[0]]
		case circuit.And, circuit.Nand:
			v = ^uint64(0)
			for _, f := range in {
				v &= vals[f]
			}
		case circuit.Or, circuit.Nor:
			for _, f := range in {
				v |= vals[f]
			}
		case circuit.Xor, circuit.Xnor:
			for _, f := range in {
				v ^= vals[f]
			}
		default:
			return nil, fmt.Errorf("node %d has unknown type %v", id, nd.Type)
		}
		if nd.Type == circuit.Nand || nd.Type == circuit.Nor || nd.Type == circuit.Xnor {
			v = ^v
		}
		vals[id] = v
	}
	outs := make([]uint64, len(n.c.Outputs))
	for i, o := range n.c.Outputs {
		outs[i] = vals[o]
	}
	return outs, nil
}

// equivalent checks that out computes ref's function: the same input and
// output counts and equal outputs position by position on
// every input pattern (up to exhaustiveInputs inputs) or on seeded random
// words. It returns why it rejected out, or "".
func (p *passRun) equivalent(ref, out *circuit.Circuit) string {
	// Inputs correspond by position: the pipeline keeps the input order,
	// while an input that comes to drive an output directly takes that
	// output's name.
	if len(ref.Inputs) != len(out.Inputs) || len(ref.Outputs) != len(out.Outputs) {
		return fmt.Sprintf("%d inputs, %d outputs; want %d, %d",
			len(out.Inputs), len(out.Outputs), len(ref.Inputs), len(ref.Outputs))
	}
	nr, err := compile(ref)
	if err != nil {
		return "reference: " + err.Error()
	}
	no, err := compile(out)
	if err != nil {
		return err.Error()
	}
	nPI := len(ref.Inputs)
	words, exhaustive := sampleWords, nPI <= exhaustiveInputs
	mask := ^uint64(0)
	if exhaustive {
		words = 1
		if nPI > 6 {
			words = 1 << (nPI - 6)
		} else {
			mask = 1<<(1<<nPI) - 1
		}
		p.res.exhaustive++
	} else {
		p.res.sampled++
	}
	h := fnv.New64a()
	h.Write([]byte(ref.Name))
	rng := rand.New(rand.NewSource(p.seed ^ int64(h.Sum64())))
	pi := make([]uint64, nPI)
	rv := make([]uint64, len(ref.Nodes))
	ov := make([]uint64, len(out.Nodes))
	for w := 0; w < words; w++ {
		for i := range pi {
			switch {
			case !exhaustive:
				pi[i] = rng.Uint64()
			case i < 6:
				pi[i] = lowInputWords[i]
			case w>>(i-6)&1 == 1:
				pi[i] = ^uint64(0)
			default:
				pi[i] = 0
			}
		}
		for i := range pi {
			rv[ref.Inputs[i]] = pi[i]
			ov[out.Inputs[i]] = pi[i]
		}
		ro, err := nr.eval(rv)
		if err != nil {
			return "reference: " + err.Error()
		}
		oo, err := no.eval(ov)
		if err != nil {
			return err.Error()
		}
		for i := range ro {
			if d := (ro[i] ^ oo[i]) & mask; d != 0 {
				return fmt.Sprintf("output %d (%s) differs on input word %d", i, out.Nodes[out.Outputs[i]].Name, w)
			}
		}
	}
	return ""
}

// lowInputWords[i] is input i's word over the 64 patterns of an exhaustive
// word: pattern b sets input i to bit i of b.
var lowInputWords = [6]uint64{
	0xaaaaaaaaaaaaaaaa, 0xcccccccccccccccc, 0xf0f0f0f0f0f0f0f0,
	0xff00ff00ff00ff00, 0xffff0000ffff0000, 0xffffffff00000000,
}

// countPaths counts the input-to-output paths of c (saturating), for the
// path ratios of outputs whose producer reports none.
func countPaths(c *circuit.Circuit) uint64 {
	n, err := compile(c)
	if err != nil {
		return 0
	}
	np := make([]uint64, len(c.Nodes))
	for _, id := range c.Inputs {
		np[id] = 1
	}
	for _, id := range n.order {
		var s uint64
		for _, f := range c.Nodes[id].Fanin {
			s = satAdd(s, np[f])
		}
		np[id] = s
	}
	var total uint64
	for _, o := range c.Outputs {
		total = satAdd(total, np[o])
	}
	return total
}

func satAdd(a, b uint64) uint64 {
	if a+b < a {
		return ^uint64(0)
	}
	return a + b
}
