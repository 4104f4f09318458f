"""Walkthrough: the autodiff engine and virtual gate parameters.

Builds a tiny expression, backpropagates it, checks a gradient by hand,
then shows how an all-ones gate captures per-unit sensitivity without
changing the forward value.
"""

import numpy as np

from kttrace.autograd import (
    Tape, Tensor, gate_apply, matmul, mean_over_axis, mul, sigmoid,
)

print("== a scalar chain ==")
x = Tensor(np.array([3.0]), requires_grad=True, name="x")
with Tape() as tape:
    loss = mean_over_axis(mul(x, x), 0)  # L = x^2
tape.backward(loss)   # adds dL/dx into x.grad, which starts as zeros
print(f"L = x^2 at x=3  ->  L={loss.item():.1f}, dL/dx={x.grad[0]:.1f}  (expect 6)")

print("\n== a matrix chain, gradient vs finite differences ==")
rng = np.random.default_rng(0)
a = Tensor(rng.normal(size=(2, 3)), requires_grad=True, name="a")
w = Tensor(rng.normal(size=(3, 3)), requires_grad=True, name="w")
with Tape() as tape:
    h = sigmoid(matmul(a, w))
    loss = mean_over_axis(mean_over_axis(h, 1), 0)
tape.backward(loss)

h_ = 1e-6
w.data[0, 0] += h_
up = sigmoid(matmul(a, w)).data.mean()
w.data[0, 0] -= 2 * h_
down = sigmoid(matmul(a, w)).data.mean()
w.data[0, 0] += h_
fd = (up - down) / (2 * h_)
print(f"analytic dL/dw[0,0] = {w.grad[0, 0]:+.8f}")
print(f"finite-difference   = {fd:+.8f}")

print("\n== virtual gates ==")
# multiply an all-ones gate into a layer output: the value is unchanged,
# but the gate's gradient reads off how much each unit matters
layer_out = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
gate = Tensor(np.ones(3), requires_grad=True, name="gate")
with Tape() as tape:
    gated = gate_apply(layer_out, gate)
    loss = mean_over_axis(mean_over_axis(sigmoid(gated), 1), 0)
tape.backward(loss)
plain = sigmoid(layer_out).data
print("forward unchanged by the gate:", np.allclose(plain, sigmoid(gated).data))
print("per-unit gate gradient:", np.round(gate.grad, 5))
print("(unit with the largest |gradient| is the most loss-relevant)")
