package sim

// Method is a simulation method process, the analogue of a SystemC
// SC_METHOD: a callback executed by the kernel in the evaluate phase whenever
// one of the events in its sensitivity list fires. Method functions run to
// completion and must not call the Wait primitives.
type Method struct {
	k    *Kernel
	name string
	fn   func()
	// strand, when set, is the Strand this method runs (in place of fn).
	strand *Strand
	queued bool
	// lastTrigger is the event whose firing queued this method, nil when the
	// method was queued by Trigger or at elaboration.
	lastTrigger *Event
}

// NewMethod creates a method process sensitive to the given events. With
// initial true the method is also triggered once at the start of the
// simulation (SystemC's default initialization of methods).
func (k *Kernel) NewMethod(name string, fn func(), initial bool, sensitivity ...*Event) *Method {
	if fn == nil {
		panic("sim: NewMethod with nil function")
	}
	m := &Method{}
	k.initMethod(m, name, fn, sensitivity)
	if initial {
		m.Trigger()
	}
	return m
}

// initMethod sets up m in place and subscribes it to its sensitivity list.
func (k *Kernel) initMethod(m *Method, name string, fn func(), sensitivity []*Event) {
	*m = Method{k: k, name: name, fn: fn}
	for _, e := range sensitivity {
		e.addMethod(m)
	}
}

// Name returns the method's name.
func (m *Method) Name() string { return m.name }

// LastTrigger returns the event that caused the current/last execution, or
// nil for the initial execution or a manual Trigger.
func (m *Method) LastTrigger() *Event { return m.lastTrigger }

// Trigger queues the method to run in the current evaluate phase regardless
// of its sensitivity list.
func (m *Method) Trigger() {
	if m.queued {
		return
	}
	m.queued = true
	m.lastTrigger = nil
	m.k.methodQueue.push(m)
}

// trigger is called by a firing event in the sensitivity list.
func (m *Method) trigger(e *Event) {
	if m.queued {
		return
	}
	m.queued = true
	m.lastTrigger = e
	m.k.methodQueue.push(m)
}

// run executes the method body once.
func (m *Method) run() {
	m.queued = false
	if m.strand != nil {
		m.strand.step()
		return
	}
	m.fn()
}
