"""
Anchoring timed reports: sessions, scenarios, forecasts
=======================================================

Model intervals are relative ("pupils dilate within 3 minutes of the
injury") but reports arrive with wall-clock stamps ("dilated pupils at
10:42"). A session folds timed reports in one at a time: the first event
anchors the timeline, later events resolve into intervals by elapsed time,
and anything that cannot be resolved yet is carried as weighted scenarios.
"""

from tnbn import ObservedEvent, accident_network, compile_network, open_session
from tnbn.model import format_time

net = compile_network(accident_network())


def window_text(window):
    """Show a window as (lo, hi), whole numbers without a trailing .0."""
    return f"({format_time(window[0])}, {format_time(window[1])})"


# --- the easy case: the cause is reported first -----------------------------

s = open_session(net)
s = s.observe(ObservedEvent("C", "severe", tc=100))
s = s.observe(ObservedEvent("VS", "unstable", tc=115))

print("anchor:", s.anchor)
r = s.resolved["VS"]
print("VS resolved to:", net.spec.node("VS").state_label(r.state))
print("  absolute window:", window_text(r.window))

# Forecasts for everything unobserved; temporal states come with the
# absolute window the anchor implies.
print("\nforecasts given the two reports:")
for nid, forecast in s.predict().forecasts.items():
    for state, p in forecast.distribution.items():
        window = forecast.window_for(state)
        tail = f"  expected in {window_text(window)}" if window else ""
        print(f"  P({nid}={net.spec.node(nid).state_label(state)}) = {p:.4f}{tail}")

# --- a symptom arrives first: scenarios -------------------------------------

# With no earlier event there is nothing to measure elapsed time against,
# so the unstable-vitals report cannot be placed in an interval. The session
# keeps it pending and weighs every candidate interval by its posterior.
s = open_session(net).observe(ObservedEvent("VS", "unstable", tc=115))
print("\npending:", [e.node for e in s.pending])
for sc in s.scenarios():
    label = net.spec.node("VS").state_label(sc.state)
    print(f"  weight {sc.weight:.4f}: {label}")

# Forecasts condition on the value alone (VS is in one of its unstable
# intervals) and let the interval stay uncertain.
print("\nP(HI) with the interval still unknown:")
for state, p in s.predict().forecasts["HI"].distribution.items():
    print(f"  {state.value}: {p:.4f}")

# The next concrete event settles the pending report. Here the accident
# report comes in late, stamped before the symptom: elapsed time 15 puts
# the change in [10,30] after all.
s = s.observe(ObservedEvent("C", "severe", tc=100))
print("\nafter the late accident report:")
print("  pending:", list(s.pending))
print("  VS:", net.spec.node("VS").state_label(s.resolved["VS"].state),
      "window", window_text(s.resolved["VS"].window))

# --- reports that do not fit ------------------------------------------------

# Vital signs turning unstable 200 minutes after the anchor lies outside
# the covered hour. The report is kept, flagged, and excluded from evidence.
s = open_session(net)
s = s.observe(ObservedEvent("C", "severe", tc=100))
s = s.observe(ObservedEvent("VS", "unstable", tc=300))
for event, reason in s.inconsistent:
    print(f"\ninconsistent report {event.node}@{event.tc}: {reason}")

# diagnose() narrows the forecast to unobserved causes of what was seen.
s = open_session(net).observe(ObservedEvent("VS", "unstable", tc=115))
print("\ncandidate causes of unstable vitals:")
for nid, forecast in s.diagnose().forecasts.items():
    top = forecast.distribution.argmax()
    print(f"  {nid}: most likely {top.value} "
          f"(p={forecast.distribution.p(top):.4f})")
