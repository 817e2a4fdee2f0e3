package core

import (
	"reflect"
	"strings"
)

// Knob is one Boolean ablation switch on Config, declared by the field's
// `knob:"<flag>,<param>"` and `help` tags.
type Knob struct {
	// Flag is the absolver command-line flag ("" = not on the command line).
	Flag string
	// Param is the absolverd query parameter ("" = not on the wire). The
	// api.SolveParams field carrying it is the parameter in CamelCase.
	Param string
	// Help is the one-line description the flag's usage prints.
	Help  string
	index int
}

// Field returns the knob's field in c.
func (k Knob) Field(c *Config) *bool {
	return reflect.ValueOf(c).Elem().Field(k.index).Addr().Interface().(*bool)
}

// Knobs lists the ablation knobs in Config declaration order. The CLI
// registers its flags from it, the wire parameters and their Config walk
// it, and OrKnobs composes it onto portfolio strategies.
var Knobs = func() []Knob {
	var out []Knob
	t := reflect.TypeOf(Config{})
	for i := 0; i < t.NumField(); i++ {
		if tag, ok := t.Field(i).Tag.Lookup("knob"); ok {
			flag, param, _ := strings.Cut(tag, ",")
			out = append(out, Knob{Flag: flag, Param: param, Help: t.Field(i).Tag.Get("help"), index: i})
		}
	}
	return out
}()

// OrKnobs sets every knob that base sets. A knob only ever adds its
// restriction: a portfolio strategy defined by one (the "restart"
// strategy) keeps it when base leaves it off.
func (c *Config) OrKnobs(base Config) {
	for _, k := range Knobs {
		*k.Field(c) = *k.Field(c) || *k.Field(&base)
	}
}
