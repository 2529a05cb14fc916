"""Generated by tools/fusion.py: do not edit.

The float entry points controller.control_terms and model.open_loop_rhs_flat with every
helper call inlined, one factory each, which the two modules bind at import
(codegen.bind). After editing either definition or a helper it calls, rewrite this
file from the repository root with

    python tools/fusion.py src/ripsim
"""


def control_terms_factory(DefinitenessLost, _math_atan):
    def control_terms(k, q1, q2, s, c, p1c, p2c):
        den = k.k1 + k.w * s * s
        d4 = k.p3 * c * c / den - k.p4psi40
        m11 = k.p1 + k.p2 * s * s
        d2b = m11 / den - k.p3psi40
        d2 = c * d2b
        ps3 = c / den
        det = k.k2 * d4 - d2 * d2
        if det <= 0.0:
            raise DefinitenessLost(q2, det)
        _3_i11 = d4 / det
        _3_i12 = -d2 / det
        _3_i22 = k.k2 / det
        pt1 = _3_i11 * p1c + _3_i12 * p2c
        _3_pt2 = _3_i12 * p1c + _3_i22 * p2c
        _3_s2 = 2.0 * s * c
        _5_w = k.w
        _5_dden = _5_w * _3_s2
        _5_dm11 = k.p2 * _3_s2
        _5_den2 = den * den
        _3_dd2 = -s * d2b + c * (_5_dm11 * den - m11 * _5_dden) / _5_den2
        _3_dd4 = k.neg_p3 * _3_s2 * (den + _5_w * c * c) / _5_den2
        _3_offset = k.za * _math_atan(k.zb * s)
        _7_z = q1 + _3_offset
        _3_gq1 = k.kappa * _7_z
        _7_g2 = _3_gq1 * ps3 / k.psi40 + k.p5_psi40 * s
        _3_gq2 = _7_g2 - 0.5 * (2.0 * pt1 * _3_pt2 * _3_dd2 + _3_pt2 * _3_pt2 * _3_dd4)
        _9_p3, _9_k2 = (k.p3, k.k2)
        _9_m12 = _9_p3 * c
        _9_m11p4 = m11 * k.p4
        _9_det = _9_m11p4 - _9_m12 * _9_m12
        _9_n1 = k.p4k2 - _9_m12 * d2
        _9_n2 = -_9_m12 * _9_k2 + m11 * d2
        _9_det_ = _9_m11p4 - k.p3sq * c * c
        _9_ddet = k.ddet * _3_s2
        _9_p3s = _9_p3 * s
        _9_dn1 = _9_p3s * d2 - _9_m12 * _3_dd2
        _9_dn2 = _9_p3s * _9_k2 + k.p2 * _3_s2 * d2 + m11 * _3_dd2
        _9_det2 = _9_det_ * _9_det_
        _3_ps1 = _9_n1 / _9_det
        _3_ps2 = _9_n2 / _9_det
        _3_dps1 = (_9_dn1 * _9_det_ - _9_n1 * _9_ddet) / _9_det2
        _3_dps2 = (_9_dn2 * _9_det_ - _9_n2 * _9_ddet) / _9_det2
        _10_p3_, _10_ps4, _10_p3ps4 = (k.p3, k.ps4, k.p3ps4)
        _10_two_a1 = k.neg2p2 * _3_ps1 * _3_ps1 * s * c + k.two_p3 * _3_ps1 * _3_ps2 * s + _10_ps4 * m11 * _3_dps1 - _10_p3ps4 * _3_ps2 * s + k.two_p2ps4 * _3_ps1 * s * c + _10_p3ps4 * c * _3_dps2
        _3_a2 = _10_p3_ * _3_ps2 * ps3 * s - k.two_p2 * _3_ps1 * ps3 * s * c + _10_p3_ * _3_ps1 * _10_ps4 * s + _10_p3ps4 * c * _3_dps1 + k.p4ps4 * _3_dps2 - _10_p3ps4 * _3_ps1 * s
        _3_a1 = 0.5 * _10_two_a1
        _3_j2s = _3_a1 * pt1 + _3_a2 * _3_pt2
        u = -(_3_ps1 * _3_gq1 + _3_ps2 * _3_gq2) + _3_j2s * _3_pt2 - k.kv * pt1
        return (u, pt1)
    return control_terms


def open_loop_rhs_flat_factory():
    def open_loop_rhs_flat(params, s, c, p1c, p2c, u, d):
        m11 = params.p1 + params.p2 * s * s
        m12 = params.p3 * c
        m22 = params.p4
        _1_det = m11 * m22 - m12 * m12
        i11 = m22 / _1_det
        i12 = -m12 / _1_det
        i22 = m11 / _1_det
        qd1 = i11 * p1c + i12 * p2c
        qd2 = i12 * p1c + i22 * p2c
        d11 = 2.0 * params.p2 * s * c
        d12 = -params.p3 * s
        dh = -params.p5 * s - 0.5 * (d11 * qd1 * qd1 + 2.0 * d12 * qd1 * qd2)
        return (qd1, qd2, u - d, -dh)
    return open_loop_rhs_flat
