// Package vcd writes Value Change Dump files so scan-mode simulations can
// be inspected in any waveform viewer (GTKWave etc.) — the standard way
// to eyeball what the chain actually does to the combinational logic
// cycle by cycle.
package vcd

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/sim"
)

// Dumper streams one VCD file; create with NewDumper, call Tick once per
// clock with the per-net state, then Close.
type Dumper struct {
	w    *bufio.Writer
	c    *netlist.Circuit
	nets []netlist.NetID
	ids  []string
	prev []bool
	time int
	open bool
}

// NewDumper prepares a dumper over the chosen nets (nil = every net) and
// writes the VCD header.
func NewDumper(w io.Writer, c *netlist.Circuit, nets []netlist.NetID) (*Dumper, error) {
	if nets == nil {
		nets = make([]netlist.NetID, c.NumNets())
		for i := range nets {
			nets[i] = netlist.NetID(i)
		}
	}
	d := &Dumper{
		w:    bufio.NewWriter(w),
		c:    c,
		nets: nets,
		ids:  make([]string, len(nets)),
		prev: make([]bool, len(nets)),
		open: true,
	}
	for i := range nets {
		d.ids[i] = idCode(i)
	}
	fmt.Fprintln(d.w, "$date generated by scanpower $end")
	fmt.Fprintln(d.w, "$timescale 1ns $end")
	fmt.Fprintf(d.w, "$scope module %s $end\n", c.Name)
	for i, n := range nets {
		fmt.Fprintf(d.w, "$var wire 1 %s %s $end\n", d.ids[i], c.Nets[n].Name)
	}
	fmt.Fprintln(d.w, "$upscope $end")
	fmt.Fprintln(d.w, "$enddefinitions $end")
	return d, d.w.Flush()
}

// idCode maps an index to a short printable VCD identifier.
func idCode(i int) string {
	const lo, hi = 33, 126 // '!'..'~'
	n := hi - lo + 1
	code := []byte{}
	for {
		code = append(code, byte(lo+i%n))
		i /= n
		if i == 0 {
			break
		}
		i--
	}
	return string(code)
}

// Tick records the state (indexed by NetID) at the next clock edge,
// emitting only changed signals (all signals at time 0).
func (d *Dumper) Tick(state []bool) error {
	if !d.open {
		return fmt.Errorf("vcd: Tick after Close")
	}
	fmt.Fprintf(d.w, "#%d\n", d.time)
	for i, n := range d.nets {
		v := state[n]
		if d.time == 0 || v != d.prev[i] {
			bit := byte('0')
			if v {
				bit = '1'
			}
			fmt.Fprintf(d.w, "%c%s\n", bit, d.ids[i])
		}
		d.prev[i] = v
	}
	d.time++
	return nil
}

// Close writes the final timestamp and flushes.
func (d *Dumper) Close() error {
	if !d.open {
		return nil
	}
	d.open = false
	fmt.Fprintf(d.w, "#%d\n", d.time)
	return d.w.Flush()
}

// DumpScan simulates the scan test application (shift and capture cycles)
// and dumps every observed combinational state. nets selects the dumped
// signals (nil = all).
func DumpScan(w io.Writer, ch *scan.Chains, patterns []scan.Pattern,
	cfg scan.ShiftConfig, nets []netlist.NetID) error {

	c := ch.Circuit()
	d, err := NewDumper(w, c, nets)
	if err != nil {
		return err
	}
	s := sim.New(c)
	var tickErr error
	hooks := scan.Hooks{
		ShiftCycle: func(pi, ppi []bool) {
			st := s.Eval(pi, ppi)
			if err := d.Tick(st); err != nil && tickErr == nil {
				tickErr = err
			}
		},
		Capture: func(pi, ppi []bool) []bool {
			st := s.Eval(pi, ppi)
			if err := d.Tick(st); err != nil && tickErr == nil {
				tickErr = err
			}
			next := make([]bool, c.NumFFs())
			for i, ff := range c.FFs {
				next[i] = st[ff.D]
			}
			return next
		},
	}
	if err := ch.Run(patterns, cfg, hooks); err != nil {
		return err
	}
	if tickErr != nil {
		return tickErr
	}
	return d.Close()
}
