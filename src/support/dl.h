#ifndef ARK_SUPPORT_DL_H
#define ARK_SUPPORT_DL_H

/**
 * @file
 * RAII wrappers around POSIX dynamic loading and temporary
 * directories, for the JIT (expr/cjit.h).
 *
 * DynamicLibrary owns a dlopen handle: the library stays mapped for
 * the wrapper's lifetime and is dlclosed exactly once. On Linux the
 * backing file may be unlinked while the handle is open (the mapping
 * pins the inode), which is how ephemeral kernel compilations avoid
 * leaving files behind.
 *
 * TempDir owns an mkdtemp directory and removes it (recursively,
 * best-effort) on destruction.
 */

#include <string>

namespace ark::support {

/** Movable owner of one dlopen handle. */
class DynamicLibrary
{
  public:
    DynamicLibrary() = default;
    ~DynamicLibrary();

    DynamicLibrary(DynamicLibrary &&other) noexcept;
    DynamicLibrary &operator=(DynamicLibrary &&other) noexcept;
    DynamicLibrary(const DynamicLibrary &) = delete;
    DynamicLibrary &operator=(const DynamicLibrary &) = delete;

    /**
     * dlopens `path` (RTLD_NOW | RTLD_LOCAL). On failure returns a
     * default-constructed wrapper and, when `error` is non-null,
     * stores the dlerror text.
     */
    static DynamicLibrary open(const std::string &path,
                               std::string *error = nullptr);

    /** Whether a handle is held. */
    bool ok() const { return handle_ != nullptr; }

    /** Resolves a symbol; null when missing or no handle is held. */
    void *symbol(const char *name) const;

    /** The path the handle was opened from (diagnostics). */
    const std::string &path() const { return path_; }

  private:
    void *handle_ = nullptr;
    std::string path_;
};

/** Movable owner of one mkdtemp directory. */
class TempDir
{
  public:
    TempDir() = default;
    ~TempDir();

    TempDir(TempDir &&other) noexcept;
    TempDir &operator=(TempDir &&other) noexcept;
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    /**
     * Creates `$TMPDIR/<prefix>XXXXXX` (falling back to /tmp). On
     * failure returns a wrapper with ok() == false and, when `error`
     * is non-null, stores the errno text.
     */
    static TempDir create(const std::string &prefix,
                          std::string *error = nullptr);

    bool ok() const { return !path_.empty(); }

    /** Absolute directory path; empty when creation failed. */
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace ark::support

#endif // ARK_SUPPORT_DL_H
