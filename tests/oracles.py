"""Independent reference implementations the tests compare against.

Everything here is deliberately literal: scalar loops, direct formulas,
exhaustive enumeration, high-precision arithmetic. Nothing imports from
the package, so agreement between the two sides is meaningful.
"""
import itertools
import math

import mpmath
import numpy as np


def sigmoid_scalar(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def sigmoid_by_sign(x) -> np.ndarray:
    """Logistic of an array, each sign's entries in their own half so exp
    never overflows: 1 / (1 + exp(-x)) for x >= 0, exp(x) / (1 + exp(x))
    below."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax_list(scores):
    top = max(scores)
    exps = [math.exp(s - top) for s in scores]
    z = sum(exps)
    return [e / z for e in exps]


def sigmoid_xent_highprec(logits, targets) -> float:
    """Mean binary cross-entropy evaluated at 50 decimal digits."""
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for z, y in zip(logits, targets):
            p = 1 / (1 + mpmath.e ** (-mpmath.mpf(z)))
            total += -(y * mpmath.log(p) + (1 - y) * mpmath.log(1 - p))
        return float(total / len(logits))


def lstm_direction_loops(inputs, weights, hidden: int):
    """One LSTM direction evaluated gate by gate with scalar arithmetic.

    `weights` maps names W_i/U_i/b_i, W_f/U_f/b_f, W_g/U_g/b_g, W_o/U_o/b_o
    to nested lists; W_* are [in_dim][hidden], U_* are [hidden][hidden].
    Returns the list of hidden-state vectors.
    """
    h = [0.0] * hidden
    c = [0.0] * hidden
    outs = []
    for x in inputs:
        gates = {}
        for g in ("i", "f", "g", "o"):
            W, U, b = weights[f"W_{g}"], weights[f"U_{g}"], weights[f"b_{g}"]
            pre = []
            for j in range(hidden):
                s = b[j]
                for r in range(len(x)):
                    s += x[r] * W[r][j]
                for r in range(hidden):
                    s += h[r] * U[r][j]
                pre.append(s)
            gates[g] = pre
        i_g = [sigmoid_scalar(v) for v in gates["i"]]
        f_g = [sigmoid_scalar(v) for v in gates["f"]]
        o_g = [sigmoid_scalar(v) for v in gates["o"]]
        g_g = [math.tanh(v) for v in gates["g"]]
        c = [f_g[j] * c[j] + i_g[j] * g_g[j] for j in range(hidden)]
        h = [o_g[j] * math.tanh(c[j]) for j in range(hidden)]
        outs.append(list(h))
    return outs


def primary_attention_loops(h, W_w, b_w, candidates):
    """Word-attention coefficients and mix, straight from the score formula."""
    cols = len(b_w)
    q = []
    for j in range(cols):
        s = b_w[j]
        for r in range(len(h)):
            s += h[r] * W_w[r][j]
        q.append(s)
    scores = [sum(q[j] * v[j] for j in range(cols)) for v in candidates]
    alpha = softmax_list(scores)
    mix = [
        sum(alpha[i] * candidates[i][j] for i in range(len(candidates)))
        for j in range(cols)
    ]
    return alpha, mix


def secondary_attention_loops(vectors, W_s, b_s, u):
    """Sentence-attention coefficients and pooled vector, loop evaluated."""
    ctx = len(b_s)
    scores = []
    for vec in vectors:
        e = 0.0
        for j in range(ctx):
            s = b_s[j]
            for r in range(len(vec)):
                s += vec[r] * W_s[r][j]
            e += u[j] * math.tanh(s)
        scores.append(e)
    alpha = softmax_list(scores)
    pooled = [
        sum(alpha[t] * vectors[t][j] for t in range(len(vectors)))
        for j in range(len(vectors[0]))
    ]
    return alpha, pooled


def affine_loops(x, W, b):
    """Logits of a single affine layer, summed term by term."""
    return [
        b[j] + sum(x[r] * W[r][j] for r in range(len(x)))
        for j in range(len(b))
    ]


def adam_step_per_tensor(params, grads, m, v, t, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam as whole-array numpy expressions, one parameter at
    a time. `params`, `m` and `v` map names to arrays (a missing moment
    starts at 0.0); returns new dicts of the three and writes nothing."""
    new_params, new_m, new_v = dict(params), dict(m), dict(v)
    for name, grad in grads.items():
        g = np.asarray(grad, dtype=np.float64)
        mm = beta1 * m.get(name, 0.0) + (1.0 - beta1) * g
        vv = beta2 * v.get(name, 0.0) + (1.0 - beta2) * g * g
        m_hat = mm / (1.0 - beta1**t)
        v_hat = vv / (1.0 - beta2**t)
        new_m[name], new_v[name] = mm, vv
        new_params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_params, new_m, new_v


def truncated_normal_rescan(rng, shape, std=0.1):
    """Normal(0, std) samples; every round rescans the whole array and
    redraws, in C order, each entry beyond two standard deviations."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


def load_embeddings_per_line(path, expected_dim, specials, draw):
    """word2vec text vectors parsed one line at a time with `float()`.

    Returns (words in row order, matrix). Two passes: the first checks the
    value count of every line and keeps each word's first line; the second
    parses the kept lines in file order, except specials[0] and
    specials[1], then checks them for non-finite values. Words absent from
    the file among `specials` are appended; specials[0] is zeros,
    specials[1] and each appended specials[2:] row are `draw(special)`.
    A bad line raises ValueError naming it.
    """
    first = {}  # word -> (line number, value strings)
    lines = path.read_text(encoding="utf-8").splitlines()
    start = 0
    if lines:
        head = lines[0].split()
        if len(head) == 2 and all(p.lstrip("-").isdigit() for p in head):
            start = 1
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = line.rstrip().split(" ")
        word, values = parts[0], parts[1:]
        if len(values) != expected_dim:
            raise ValueError(
                f"{path}: line {lineno}: expected {expected_dim} values for "
                f"{word!r}, got {len(values)}"
            )
        first.setdefault(word, (lineno, values))
    if not first:
        raise ValueError(f"{path}: no embedding vectors found")
    words = list(first) + [s for s in specials if s not in first]
    rows = {specials[0]: np.zeros(expected_dim), specials[1]: draw(specials[1])}
    for special in specials[2:]:
        if special not in first:
            rows[special] = draw(special)
    parsed = [w for w in first if w not in rows]
    for word in parsed:
        lineno, values = first[word]
        try:
            rows[word] = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric value for {word!r}") from None
    for word in parsed:
        if not np.isfinite(rows[word]).all():
            raise ValueError(f"{path}: line {first[word][0]}: non-finite value for {word!r}")
    return words, np.vstack([rows[w] for w in words])


def enumerate_segmentations(body, cost_fn):
    """Best split of `body` by trying all 2^(n-1) cut patterns."""
    n = len(body)
    best = None
    best_cost = math.inf
    for cuts in itertools.product([False, True], repeat=max(n - 1, 0)):
        words = []
        start = 0
        for pos, cut in enumerate(cuts, start=1):
            if cut:
                words.append(body[start:pos])
                start = pos
        words.append(body[start:])
        cost = sum(cost_fn(w) for w in words)
        if cost < best_cost:
            best_cost = cost
            best = words
    return best, best_cost


def confusion_loops(gold, predicted):
    """2x2 counts by explicit case analysis, rows actual, columns predicted."""
    tn = fp = fn = tp = 0
    for g, p in zip(gold, predicted):
        if g == 0 and p == 0:
            tn += 1
        elif g == 0 and p == 1:
            fp += 1
        elif g == 1 and p == 0:
            fn += 1
        else:
            tp += 1
    return ((tn, fp), (fn, tp))


def prf_counts(tp, fp, fn):
    """Precision/recall/F1 from counts, zero when a denominator is zero."""
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def dropout_mask(shape, rate: float, rng) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability `rate`, else 1/(1-rate).

    `rng` is a numpy Generator or an integer seed; the same seed always
    yields the same mask.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    if rate == 0.0:
        return np.ones(shape)
    keep = rng.random(shape) >= rate
    return np.where(keep, 1.0 / (1.0 - rate), 0.0)
