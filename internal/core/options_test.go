package core

import (
	"math"
	"strings"
	"testing"
)

// TestOptionsRejectOutOfRange: Run rejects, before it starts anything,
// a float option that is not finite and a negative value of an option
// whose zero means "default" or "off", with an error naming the field.
// Zero keeps its meaning.
func TestOptionsRejectOutOfRange(t *testing.T) {
	cases := []struct {
		field string // "" when the options are valid
		set   func(*Options)
	}{
		{"SliceMSec", func(o *Options) { o.SliceMSec = math.NaN() }},
		{"SliceMSec", func(o *Options) { o.SliceMSec = math.Inf(1) }},
		{"SliceMSec", func(o *Options) { o.SliceMSec = math.Inf(-1) }},
		{"SliceMSec", func(o *Options) { o.SliceMSec = 0 }},
		{"SliceMSec", func(o *Options) { o.SliceMSec = -5 }},
		{"ExpectedAppMSec", func(o *Options) { o.ExpectedAppMSec = math.NaN() }},
		{"ExpectedAppMSec", func(o *Options) { o.ExpectedAppMSec = math.Inf(1) }},
		{"ExpectedAppMSec", func(o *Options) { o.ExpectedAppMSec = -1 }},
		{"MinSliceMSec", func(o *Options) { o.MinSliceMSec = math.NaN() }},
		{"MinSliceMSec", func(o *Options) { o.MinSliceMSec = math.Inf(-1) }},
		{"MinSliceMSec", func(o *Options) { o.MinSliceMSec = -0.5 }},
		{"MaxSlices", func(o *Options) { o.MaxSlices = 0 }},
		{"MaxSysRecs", func(o *Options) { o.MaxSysRecs = -1 }},
		{"StackWords", func(o *Options) { o.StackWords = -1 }},
		{"RegPickIns", func(o *Options) { o.RegPickIns = -1 }},
		{"BubblePages", func(o *Options) { o.BubblePages = -1 }},
		{"IPHistoryLen", func(o *Options) { o.IPHistoryLen = -1 }},
		{"", func(o *Options) {
			o.ExpectedAppMSec, o.MinSliceMSec, o.MaxSysRecs = 0, 0, 0
			o.StackWords, o.RegPickIns, o.BubblePages, o.IPHistoryLen = 0, 0, 0, 0
		}},
	}
	for _, c := range cases {
		o := DefaultOptions()
		c.set(&o)
		err := o.normalize()
		switch {
		case c.field == "" && err != nil:
			t.Errorf("valid options rejected: %v", err)
		case c.field != "" && (err == nil || !strings.Contains(err.Error(), c.field)):
			t.Errorf("%s: got %v, want an error naming the field", c.field, err)
		}
	}
	if _, err := Run(testKernelCfg(), nil, nil, Options{SliceMSec: math.NaN(), MaxSlices: 1}); err == nil {
		t.Error("Run accepted SliceMSec NaN")
	}
}
