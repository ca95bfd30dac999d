"""The normal-form kernels on tuples of (factor, element) syllables, kept as
the oracle for the id-string kernels in freeprod.free_product.

A normal form here is a tuple of (factor_index, element_id) pairs, and each
kernel walks it one syllable per Python step: the definitions straight from
the normal form and conjugacy theorems (Lyndon-Schupp, ch. IV, sec. 1),
sharing no code with the id kernels.
"""

from freeprod.errors import PowerTooLargeError
from freeprod.free_product import MAX_POWER_SYLLABLES


def inverse(factors, s):
    return tuple([(f, factors[f].inverses[e]) for f, e in reversed(s)])


def seam_merge(factors, out, pieces):
    """Append the reduced syllable tuples ``pieces``, in order, to the
    reduced list ``out`` and return it, cancelling one syllable at a time."""
    for sylls in pieces:
        i, n = 0, len(sylls)
        while out and i < n:
            f, e = sylls[i]
            lf, le = out[-1]
            if lf != f:
                break
            m = factors[f].table[le][e]
            i += 1
            if m:
                out[-1] = (f, m)
                break
            out.pop()
        out.extend(sylls[i:] if i else sylls)
    return out


def product(factors, a, b):
    return tuple(seam_merge(factors, list(a), (b,)))


def cyclic_split(factors, s):
    """(i, core) with s = s[:i] * core * s[:i]^-1 and the core cyclically
    reduced: two indices close in from both ends."""
    i, j = 0, len(s)
    tail = ()
    while j - i >= 2 and s[i][0] == s[j - 1][0]:
        f, e = s[i]
        m = factors[f].table[s[j - 1][1]][e]
        i += 1
        j -= 1
        if m:
            tail = ((f, m),)
            break
    return i, s[i:j] + tail


def power_norm(factors, norm, core, k):
    if len(core) == 1:
        (f, e), = core
        return norm if factors[f].power(e, k) else 0
    return norm + len(core) * (k - 1)


def power(factors, s, k):
    s = tuple(s)
    if k < 0:
        s, k = inverse(factors, s), -k
    if not s or k == 0:
        return ()
    i, core = cyclic_split(factors, s)
    if len(core) == 1:
        (f, e), = core
        y = factors[f].power(e, k)
        return s[:i] + ((f, y),) + s[i + 1:] if y else ()
    if power_norm(factors, len(s), core, k) > MAX_POWER_SYLLABLES:
        raise PowerTooLargeError("power above the cap")
    return s[:i] + core * (k - 1) + s[i:]


def failure(b):
    """Knuth-Morris-Pratt failure table."""
    fail = [0] * len(b)
    k = 0
    for i in range(1, len(b)):
        while k and b[i] != b[k]:
            k = fail[k - 1]
        if b[i] == b[k]:
            k += 1
        fail[i] = k
    return fail


def is_rotation(a, b):
    """The least k with b == a[k:] + a[:k], or None: a Knuth-Morris-Pratt
    search for b in a + a."""
    n = len(b)
    fail = failure(b)
    k = 0
    for i, x in enumerate(a + a[:-1]):
        while k and x != b[k]:
            k = fail[k - 1]
        if x == b[k]:
            k += 1
            if k == n:
                return i - n + 1
    return None


def conjugator(factors, b, t):
    """Some c with c * b * c^-1 = t, or None."""
    if b == t:
        return ()
    i, core_b = cyclic_split(factors, b)
    j, core_t = cyclic_split(factors, t)
    n = len(core_b)
    if n != len(core_t):
        return None
    if n == 0:
        return ()
    if n == 1:
        (f, x), (g, y) = core_b[0], core_t[0]
        h = factors[f].conjugator(x, y) if f == g else None
        if h is None:
            return None
        middle = ((f, h),) if h else ()
    else:
        k = is_rotation(core_b, core_t)
        if k is None:
            return None
        middle = inverse(factors, core_b[:k])
    return tuple(seam_merge(factors, list(t[:j]), (middle, inverse(factors, b[:i]))))


def centralizer(factors, b, bound):
    """The elements of norm <= bound in the centralizer of b != 1."""
    i, core = cyclic_split(factors, b)
    if len(core) == 1:
        (f, x), = core
        if 2 * i + 1 > bound:
            return [()]
        u, u_inv = b[:i], b[i + 1:]
        return [u + ((f, z),) + u_inv if z else () for z in factors[f].centralizer(x)]
    n = len(core)
    period = n - failure(core)[-1]
    if n % period:
        period = n
    end = len(b) - i
    r = b[: end - (n - period)] + b[end:]
    out = [()]
    k, rk = 1, r
    while len(rk) <= bound:
        out += [rk, inverse(factors, rk)]
        k += 1
        rk = power(factors, r, k)
    return out
