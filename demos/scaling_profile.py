"""The radial scaling profile and its exact certificate.

The compression family h(t, z) = z + t G(|z|) sign(z) interpolates between
the identity and a map that squeezes the unit core.  The profile is a
piecewise cubic with rational breakpoints, so everything the construction
promises is proved in exact rationals, for every t and z at once: the
ratio cap, the vanishing integral, the conformal factor, and the family
identities.  Rational arguments give rational values.
"""

from fractions import Fraction

from weinkit.scaling import bound_ratio, build_g, conformal_bound, verify_h_family


def main():
    profile = build_g()
    print("Calibrated profile:")
    print(f"  amplitude  {profile.amplitude} = {float(profile.amplitude):.6f}"
          f"  (cap {profile.height})")
    print(f"  integral of g over [0, 1]: {profile.integral_residual()}")

    ratio = bound_ratio(profile)
    print(f"\nmax g/(tg+1) = {ratio.max_ratio} at t = {ratio.at_t}, "
          f"z = {ratio.at_z}")
    print(f"  cap {ratio.cap} + {ratio.tolerance}: "
          f"{'holds' if ratio.holds else 'fails'}")

    conf = conformal_bound()
    print(f"\nconformal factor exp({conf.exponent}) = {conf.value:.6f} "
          f"< {conf.limit}: {'holds' if conf.holds else 'fails'}")

    fam = verify_h_family(profile)
    print("\nfamily identities for 0 <= t <= 999/1000 and every z:")
    for name, check in fam.checks.items():
        print(f"  {name:18s} value {str(check.value):7s} "
              f"tol {check.tolerance:.0e}  {'ok' if check.ok else 'FAIL'}")

    print("\nsample of the compression at t = 3/4:")
    for z in ("1/4", "1/2", "3/4", "1", "5/4"):
        value = profile.h(Fraction(3, 4), Fraction(z))
        print(f"  h(3/4, {z:>3s}) = {str(value):>11s} = {float(value):.4f}")


if __name__ == "__main__":
    main()
